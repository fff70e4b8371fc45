// Package lru is the bounded cache the codecs keep their per-row-set
// matrices in: decode inverses and parity checks, keyed by (order-sensitive)
// row-set strings. Hot patterns - the same few survivor sets hit over and
// over - stay cached across insertions of new ones; only the least recently
// used entry is evicted when the cache is full.
package lru

import (
	"container/list"
	"sync"
)

// Cache is a bounded LRU safe for concurrent use. It allocates nothing until
// the first Put, so a cache that is never filled costs only itself.
type Cache[V any] struct {
	max     int
	mu      sync.Mutex
	order   list.List // front = most recently used
	entries map[string]*list.Element
}

type entry[V any] struct {
	key   string
	value V
}

// New returns an empty cache holding at most max entries.
func New[V any](max int) *Cache[V] {
	return &Cache[V]{max: max}
}

// Get returns the value cached for key, marking it most recently used. The
// key is a byte slice so that a lookup does not allocate.
func (c *Cache[V]) Get(key []byte) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[string(key)]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[V]).value, true
}

// Put inserts or refreshes key, evicting the least recently used entries
// while the cache exceeds its bound.
func (c *Cache[V]) Put(key string, value V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*entry[V]).value = value
		c.order.MoveToFront(el)
		return
	}
	if c.entries == nil {
		c.entries = make(map[string]*list.Element)
	}
	for len(c.entries) >= c.max {
		oldest := c.order.Back()
		if oldest == nil {
			break
		}
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*entry[V]).key)
	}
	c.entries[key] = c.order.PushFront(&entry[V]{key: key, value: value})
}

// Len returns the number of cached entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
