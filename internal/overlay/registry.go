package overlay

// Registry is a keyed set of per-overlay structures — one Mesh or Members
// per channel or per video — populated lazily: Get builds a key's entry on
// first use, so an overlay nobody has joined costs nothing.
type Registry[K comparable, V any] struct {
	build   func() *V
	entries map[K]*V
}

// NewRegistry returns an empty registry whose entries are made by build.
func NewRegistry[K comparable, V any](build func() *V) *Registry[K, V] {
	return &Registry[K, V]{build: build, entries: make(map[K]*V)}
}

// Get returns the entry for key, building it on first use.
func (r *Registry[K, V]) Get(key K) *V {
	v, ok := r.entries[key]
	if !ok {
		v = r.build()
		r.entries[key] = v
	}
	return v
}
