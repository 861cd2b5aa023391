// Package core is the maporder fixture: the path segment "core" places
// it in the determinism-critical scope, exactly like adept/internal/core.
package core

import "sort"

// Keys leaks map iteration order into its returned slice.
func Keys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m { // want maporder
		out = append(out, k)
	}
	return out
}

// SortedKeys is the recognized collect-then-sort idiom: the range body
// only appends, and the collected slice is sorted before use.
func SortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Sum documents a genuinely order-free fold with a directive.
func Sum(m map[string]int) int {
	total := 0
	//adeptvet:allow maporder commutative integer sum; iteration order cannot change the result
	for _, v := range m { // want maporder suppressed
		total += v
	}
	return total
}

type counter struct{ n int }

func (c *counter) Load() int { return c.n }

func (c *counter) Next() int { c.n++; return c.n }

// Counts copies each counter into the result at its own key, through a
// method on the loop's value and a conversion: the filled map is the same
// in any order.
func Counts(m map[string]*counter) (map[string]int, map[string]float64) {
	out := make(map[string]int, len(m))
	half := make(map[string]float64, len(m))
	for k, c := range m {
		n := c.Load()
		if n == 0 {
			continue
		}
		out[k] = n
		half[k] = float64(n) / 2
	}
	return out, half
}

// Number hands out IDs from one shared counter: the IDs depend on order.
func Number(m map[string]int, ids *counter) map[string]int {
	out := make(map[string]int, len(m))
	for k := range m { // want maporder
		out[k] = ids.Next()
	}
	return out
}

// Shift reads the map at a key other than the loop's.
func Shift(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k := range m { // want maporder
		out[k] = out[k+"'"]
	}
	return out
}

// Last writes a variable declared outside the loop: the last key wins.
func Last(m map[string]int) string {
	var last string
	for k := range m { // want maporder
		last = k
	}
	return last
}

// Prune deletes the entries it visits, each at its own key.
func Prune(m map[string]*counter) {
	for k, c := range m {
		if c.Load() == 0 {
			delete(m, k)
		}
	}
}

// Evict deletes at a key other than the loop's.
func Evict(m map[string]int, alias map[string]string) {
	for k := range m { // want maporder
		delete(m, alias[k])
	}
}
