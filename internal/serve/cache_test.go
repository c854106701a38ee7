package serve

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/canon"
)

// key is a test entry key with n in byte 0.
func key(n byte) canon.Hash {
	var k canon.Hash
	k[0] = n
	return k
}

// put stores body under k with no front alias.
func put(c *cache, k canon.Hash, body []byte) { c.put(k, canon.Hash{}, body) }

// get looks k up without re-pointing any alias.
func get(c *cache, k canon.Hash) ([]byte, bool) { return c.get(k, canon.Hash{}) }

func TestCacheLRUByEntries(t *testing.T) {
	c := newCache(2, 0)
	put(c, key(1), []byte("a"))
	put(c, key(2), []byte("b"))
	if _, ok := get(c, key(1)); !ok { // touch 1: now 2 is coldest
		t.Fatal("entry 1 missing")
	}
	put(c, key(3), []byte("c")) // evicts 2
	if _, ok := get(c, key(2)); ok {
		t.Error("coldest entry not evicted")
	}
	if _, ok := get(c, key(1)); !ok {
		t.Error("recently used entry evicted")
	}
	st := c.stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Errorf("stats = %+v, want 2 entries, 1 eviction", st)
	}
}

func TestCacheLRUByBytes(t *testing.T) {
	c := newCache(0, 10)
	put(c, key(1), []byte("aaaa"))
	put(c, key(2), []byte("bbbb"))
	put(c, key(3), []byte("cccc")) // 12 bytes > 10: evicts key 1
	if _, ok := get(c, key(1)); ok {
		t.Error("byte cap did not evict the coldest entry")
	}
	if st := c.stats(); st.Bytes != 8 {
		t.Errorf("bytes = %d, want 8", st.Bytes)
	}

	// A body that alone exceeds the cap is not admitted at all.
	put(c, key(4), bytes.Repeat([]byte("x"), 11))
	if _, ok := get(c, key(4)); ok {
		t.Error("oversized body admitted")
	}
}

func TestCacheBucketAccounting(t *testing.T) {
	c := newCache(8, 0)
	put(c, key(1), []byte("a"))
	put(c, key(2), []byte("b"))
	put(c, key(3), []byte("c"))

	// Replacing an entry must not double-count.
	put(c, key(1), []byte("aa"))
	if st := c.stats(); st.Entries != 3 || st.Bytes != 4 {
		t.Errorf("after replace: stats = %+v, want 3 entries, 4 bytes", st)
	}
}

func TestCacheReplaceUpdatesBody(t *testing.T) {
	c := newCache(4, 0)
	put(c, key(1), []byte("old"))
	put(c, key(1), []byte("new"))
	got, ok := get(c, key(1))
	if !ok || string(got) != "new" {
		t.Errorf("got %q, %v; want new", got, ok)
	}
}

func TestCacheKeysDistinct(t *testing.T) {
	// mixKey must separate endpoints and options for the same
	// fingerprint, and stay deterministic.
	var fp canon.Hash
	fp[0] = 7
	seen := map[canon.Hash]string{}
	for _, tc := range []struct {
		name  string
		parts [][]byte
	}{
		{"synthesize", [][]byte{[]byte("synthesize"), u64bytes(0, 0)}},
		{"synthesize+netlist", [][]byte{[]byte("synthesize"), u64bytes(1, 0)}},
		{"sweep", [][]byte{[]byte("sweep"), u64bytes(1, 8)}},
		{"certify", [][]byte{[]byte("certify")}},
	} {
		k := mixKey(fp, tc.parts...)
		if prev, dup := seen[k]; dup {
			t.Errorf("key collision between %s and %s", prev, tc.name)
		}
		seen[k] = tc.name
		if again := mixKey(fp, tc.parts...); again != k {
			t.Errorf("%s: mixKey not deterministic", tc.name)
		}
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := newCache(64, 0)
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				k := key(byte(w*16 + i%16))
				put(c, k, []byte(fmt.Sprintf("%d-%d", w, i)))
				get(c, k)
			}
		}(w)
	}
	for w := 0; w < 8; w++ {
		<-done
	}
	if st := c.stats(); st.Entries > 64 {
		t.Errorf("entries = %d, want <= 64", st.Entries)
	}
}
