package lru

import (
	"fmt"
	"testing"
)

func TestCacheLRU(t *testing.T) {
	c := New[int](3)
	if _, ok := c.Get([]byte("k0")); ok || c.Len() != 0 {
		t.Fatal("an empty cache holds k0")
	}
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("k%d", i), i+1)
	}
	if c.Len() != 3 {
		t.Fatalf("cache has %d entries, want 3", c.Len())
	}
	// Touch k0 so k1 becomes the least recently used, then overflow.
	if _, ok := c.Get([]byte("k0")); !ok {
		t.Fatal("k0 missing before overflow")
	}
	c.Put("k3", 4)
	if c.Len() != 3 {
		t.Fatalf("cache has %d entries after overflow, want 3", c.Len())
	}
	if _, ok := c.Get([]byte("k1")); ok {
		t.Fatal("least recently used k1 survived overflow")
	}
	for _, key := range []string{"k0", "k2", "k3"} {
		if _, ok := c.Get([]byte(key)); !ok {
			t.Fatalf("%s evicted, want only k1 evicted", key)
		}
	}
	// Refreshing an existing key must not evict anything.
	c.Put("k2", 9)
	if c.Len() != 3 {
		t.Fatalf("cache has %d entries after refresh, want 3", c.Len())
	}
	if got, _ := c.Get([]byte("k2")); got != 9 {
		t.Fatalf("refreshed k2 holds %d, want 9", got)
	}
}
