package vod

// Clear empties the cache, keeping its bound. Only tests reset a cache: a
// peer's cache outlives its sessions.
func (c *Cache) Clear() { *c = Cache{maxVideos: c.maxVideos} }
