package serve

import (
	"container/list"
	"sync"

	"repro/internal/canon"
)

// cacheEntry is one stored response body on the LRU list, stored under
// its entry key (the strict fingerprint mixed with the endpoint and its
// response-shaping options). front is the one front key (endpoint plus
// raw request bytes) that answers from this entry without decoding;
// zero when none does.
type cacheEntry struct {
	key   canon.Hash
	front canon.Hash
	body  []byte
	elem  *list.Element
}

// CacheStats is the cache section of the /metrics report.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
}

// cache is the bounded LRU result cache. Both knobs evict from the cold
// end: MaxEntries caps the entry count, MaxBytes the sum of stored body
// sizes. A zero knob means that dimension is unbounded (the server
// always sets at least one).
//
// Each request counts exactly one hit or one miss: a front-key hit
// counts a hit, a front-key miss counts nothing until the entry lookup
// that follows it decides.
type cache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64

	ll      *list.List // *cacheEntry; front = most recently used
	entries map[canon.Hash]*cacheEntry
	fronts  map[canon.Hash]*cacheEntry // at most one alias per entry

	bytes                   int64
	hits, misses, evictions uint64
}

func newCache(maxEntries int, maxBytes int64) *cache {
	return &cache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		entries:    make(map[canon.Hash]*cacheEntry),
		fronts:     make(map[canon.Hash]*cacheEntry),
	}
}

// getFront returns the body aliased to the front key and marks its
// entry most recently used. A miss counts nothing: the caller decodes
// the request and asks get, which counts the verdict. The returned
// slice is the stored one; callers must not mutate it.
func (c *cache) getFront(front canon.Hash) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.fronts[front]
	if !ok {
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(e.elem)
	return e.body, true
}

// get returns the stored body for the entry key and marks it most
// recently used. On a hit the entry's alias is re-pointed to front, so
// the next request with the same bytes is a front-key hit.
func (c *cache) get(key, front canon.Hash) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(e.elem)
	c.alias(e, front)
	return e.body, true
}

// put stores body under key, replacing any previous entry, aliases it
// to front, and evicts from the cold end until both knobs are
// satisfied. A body larger than MaxBytes on its own is not cached at
// all.
func (c *cache) put(key, front canon.Hash, body []byte) {
	if c.maxBytes > 0 && int64(len(body)) > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if ok {
		c.bytes += int64(len(body)) - int64(len(e.body))
		e.body = body
		c.ll.MoveToFront(e.elem)
	} else {
		e = &cacheEntry{key: key, body: body}
		e.elem = c.ll.PushFront(e)
		c.entries[key] = e
		c.bytes += int64(len(body))
	}
	c.alias(e, front)
	for (c.maxEntries > 0 && len(c.entries) > c.maxEntries) ||
		(c.maxBytes > 0 && c.bytes > c.maxBytes) {
		c.evictOldest()
	}
}

// alias makes front the one front key of e, dropping e's previous
// alias. A zero front leaves e as it is. The same bytes always decode
// to the same entry key, so front never aliases another entry. Caller
// holds c.mu.
func (c *cache) alias(e *cacheEntry, front canon.Hash) {
	if front.IsZero() || e.front == front {
		return
	}
	if !e.front.IsZero() {
		delete(c.fronts, e.front)
	}
	e.front = front
	c.fronts[front] = e
}

// evictOldest drops the least recently used entry and its alias. Caller
// holds c.mu.
func (c *cache) evictOldest() {
	back := c.ll.Back()
	if back == nil {
		return
	}
	e := back.Value.(*cacheEntry)
	c.ll.Remove(back)
	delete(c.entries, e.key)
	if !e.front.IsZero() {
		delete(c.fronts, e.front)
	}
	c.bytes -= int64(len(e.body))
	c.evictions++
}

func (c *cache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   len(c.entries),
		Bytes:     c.bytes,
	}
}
