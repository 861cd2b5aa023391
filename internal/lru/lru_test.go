package lru

import (
	"slices"
	"testing"
)

func TestCache(t *testing.T) {
	var c Cache[string, int]
	c.Init(3)
	keys := func(want ...string) {
		t.Helper()
		if got := c.Keys(); !slices.Equal(got, want) {
			t.Fatalf("keys (most recent first) = %v, want %v", got, want)
		}
		if c.Len() != len(want) {
			t.Fatalf("len = %d, want %d", c.Len(), len(want))
		}
	}

	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3)
	keys("c", "b", "a")

	// Get refreshes recency; a miss and Contains do not.
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	if _, ok := c.Get("zz"); ok {
		t.Fatal("Get of an absent key hit")
	}
	if !c.Contains("b") || c.Contains("zz") {
		t.Fatal("Contains disagrees with the contents")
	}
	keys("a", "c", "b")

	// A new key at capacity evicts the least recently used entry only.
	c.Put("d", 4)
	keys("d", "a", "c")
	if c.Contains("b") {
		t.Fatal("evicted key still present")
	}

	// Put of an existing key replaces the value and refreshes recency
	// without evicting anything.
	c.Put("c", 30)
	keys("c", "d", "a")
	if v, _ := c.Get("c"); v != 30 {
		t.Fatalf("replaced value = %d, want 30", v)
	}

	// The bound holds under churn, and the survivors are the newest.
	for i := 0; i < 100; i++ {
		c.Put(string(rune('A'+i%26)), i)
		if c.Len() > 3 {
			t.Fatalf("len %d exceeds capacity 3", c.Len())
		}
	}
	keys("V", "U", "T")

	// Init empties the cache and may change its capacity.
	c.Init(1)
	keys()
	c.Put("x", 1)
	c.Put("y", 2)
	keys("y")
}

func TestInitRejectsNonPositiveCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Init(0) did not panic")
		}
	}()
	var c Cache[int, int]
	c.Init(0)
}
