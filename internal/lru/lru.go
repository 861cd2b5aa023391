// Package lru is the repository's one least-recently-used map: the plan
// cache (internal/service) and the forwarder's retained peer responses
// (internal/cluster) are both instances of it.
package lru

import "container/list"

// Cache is a fixed-capacity map that evicts its least recently used entry
// to make room for a new one. It does no locking of its own: every user
// already holds a mutex around the counters it keeps beside the cache.
// Call Init before first use.
type Cache[K comparable, V any] struct {
	capacity int
	entries  map[K]*list.Element
	order    list.List // front = most recently used
}

type entry[K comparable, V any] struct {
	key   K
	value V
}

// Init empties c and sets its capacity, which must be positive.
func (c *Cache[K, V]) Init(capacity int) {
	if capacity <= 0 {
		panic("lru: capacity must be positive")
	}
	c.capacity = capacity
	c.entries = make(map[K]*list.Element, capacity)
	c.order.Init()
}

// Get returns the value stored under key and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	el, ok := c.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).value, true
}

// Put stores value under key as the most recently used entry: an existing
// key has its value replaced, a new key evicts the least recently used
// entry when the cache is full.
func (c *Cache[K, V]) Put(key K, value V) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*entry[K, V]).value = value
		c.order.MoveToFront(el)
		return
	}
	if c.order.Len() >= c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*entry[K, V]).key)
	}
	c.entries[key] = c.order.PushFront(&entry[K, V]{key: key, value: value})
}

// Contains reports whether key is stored, without touching recency.
func (c *Cache[K, V]) Contains(key K) bool {
	_, ok := c.entries[key]
	return ok
}

// Len returns the number of stored entries.
func (c *Cache[K, V]) Len() int { return c.order.Len() }

// Keys returns the stored keys, most recently used first.
func (c *Cache[K, V]) Keys() []K {
	keys := make([]K, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*entry[K, V]).key)
	}
	return keys
}
