package baseline

import "github.com/socialtube/socialtube/internal/vod"

// Cache exposes the node's cache, nil for an unknown node. Only tests read
// a NetTube node's cache from outside the protocol.
func (n *NetTube) Cache(node int) *vod.Cache {
	if !n.Known(node) {
		return nil
	}
	return n.caches.Cache(node)
}
