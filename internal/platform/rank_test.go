package platform_test

import (
	"cmp"
	"math"
	"slices"
	"strconv"
	"testing"

	"adept/internal/platform"
)

// rankOracle is the comparison sort Columns.RankDesc replaced, kept as its
// oracle: keys descending under cmp.Compare, ties in name order. Names are
// unique, so the order is total and the unstable sort has one answer.
func rankOracle(c *platform.Columns, keys []float64) []int32 {
	order := make([]int32, len(keys))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if o := cmp.Compare(keys[b], keys[a]); o != 0 {
			return o
		}
		return c.NameCmp(int(a), int(b))
	})
	return order
}

// stableOracle is platform.RankDesc's: keys descending under cmp.Compare,
// ties in index order.
func stableOracle(keys []float64) []int32 {
	order := make([]int32, len(keys))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(keys[b], keys[a]) })
	return order
}

// specialKeys are the floats whose order a bit trick can get wrong: NaNs of
// either sign and payload, both zeros, both infinities, subnormals, the
// extremes of the normal range and plain negatives.
var specialKeys = []float64{
	math.NaN(), math.Float64frombits(0xfff8000000000001), math.Float64frombits(0x7ff0000000000001),
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), -math.Float64frombits(0x000fffffffffffff),
	0x1p-1022, -0x1p-1022, math.MaxFloat64, -math.MaxFloat64,
	1, -1, 1.5, -1.5, 812.5, -97.25,
}

// ownNames returns valid columns of n nodes whose own names sort in an
// order unrelated to their indices: a scrambled prefix, then the index.
func ownNames(t testing.TB, n int) *platform.Columns {
	p := &platform.Platform{Name: "own", Bandwidth: 1, Nodes: make([]platform.Node, n)}
	for i := range p.Nodes {
		h := uint64(i+1) * 0x9e3779b97f4a7c15
		p.Nodes[i] = platform.Node{Name: strconv.FormatUint(h>>52, 36) + "-" + strconv.Itoa(i), Power: 1}
	}
	c, err := p.Columns()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// generatedNames returns columns of n nodes called "pool-%04d".
func generatedNames(n int) *platform.Columns {
	return &platform.Columns{Name: "pool", Bandwidth: 1, Powers: make([]float64, n)}
}

// checkRank holds both rankings to their oracles.
func checkRank(t *testing.T, label string, c *platform.Columns, keys []float64) {
	t.Helper()
	if got, want := c.RankDesc(keys), rankOracle(c, keys); !slices.Equal(got, want) {
		t.Fatalf("%s: Columns.RankDesc disagrees with the comparator at position %d of %d", label, firstDiff(got, want), len(keys))
	}
	if got, want := platform.RankDesc(keys), stableOracle(keys); !slices.Equal(got, want) {
		t.Fatalf("%s: RankDesc disagrees with the stable comparator at position %d of %d", label, firstDiff(got, want), len(keys))
	}
}

func firstDiff(a, b []int32) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestRankDescMatchesComparator holds the radix ranking to the comparison
// sort on the keys that stress its bit mapping, on ties, on both kinds of
// names — generated ones on both sides of the 10 000-node name-width edge —
// and at the pool sizes that matter.
func TestRankDescMatchesComparator(t *testing.T) {
	keySets := map[string]func(n int) []float64{
		"special": func(n int) []float64 {
			k := make([]float64, n)
			for i := range k {
				k[i] = specialKeys[(i*7)%len(specialKeys)]
			}
			return k
		},
		"all equal": func(n int) []float64 {
			k := make([]float64, n)
			for i := range k {
				k[i] = 310
			}
			return k
		},
		"heavy ties": func(n int) []float64 {
			k := make([]float64, n)
			for i := range k {
				k[i] = float64((i * 31) % 3)
			}
			return k
		},
		"distinct": func(n int) []float64 {
			k := make([]float64, n)
			for i := range k {
				k[i] = 100 + float64((i*7919)%n)/3
			}
			return k
		},
		"negatives and zeros": func(n int) []float64 {
			k := make([]float64, n)
			for i := range k {
				k[i] = -float64(i%5) / 4
				if i%4 == 0 {
					k[i] = math.Copysign(0, -1)
				}
			}
			return k
		},
	}
	for name, keys := range keySets {
		for _, n := range []int{1, 2, 25, 4000} {
			checkRank(t, name+" own n="+strconv.Itoa(n), ownNames(t, n), keys(n))
			checkRank(t, name+" generated n="+strconv.Itoa(n), generatedNames(n), keys(n))
		}
		for _, n := range []int{9_999, 10_000, 10_001, 10_050} {
			checkRank(t, name+" generated n="+strconv.Itoa(n), generatedNames(n), keys(n))
		}
	}

	// Across the edge on one key, "pool-10000" ranks between "pool-1000"
	// and "pool-1001".
	c := generatedNames(10_001)
	order := c.RankDesc(keySets["all equal"](10_001))
	at := slices.Index(order, 10_000)
	if at < 1 || order[at-1] != 1000 || order[at+1] != 1001 {
		t.Errorf("pool-10000 ranks at %d, between %v; want between pool-1000 and pool-1001", at, order[max(at-1, 0):min(at+2, len(order))])
	}
	if got := c.RankDesc(nil); len(got) != 0 {
		t.Errorf("RankDesc of no keys = %v", got)
	}
}

// TestRankingReuse ranks pool after pool through one Ranking — larger,
// smaller, tied, then larger again — and holds each ranking to the
// comparator: what an earlier, larger pool left in the buffers must not
// show through.
func TestRankingReuse(t *testing.T) {
	var r platform.Ranking
	for _, tc := range []struct {
		n    int
		c    *platform.Columns
		keys func(i int) float64
	}{
		{4000, ownNames(t, 4000), func(i int) float64 { return 100 + float64((i*7919)%4000)/3 }},
		{25, ownNames(t, 25), func(i int) float64 { return float64((i * 31) % 3) }},
		{2, generatedNames(2), func(i int) float64 { return specialKeys[i%len(specialKeys)] }},
		{10_001, generatedNames(10_001), func(i int) float64 { return float64(i % 2) }},
		{4000, ownNames(t, 4000), func(i int) float64 { return -float64(i%5) / 4 }},
		{0, generatedNames(0), nil},
	} {
		keys := make([]float64, tc.n)
		for i := range keys {
			keys[i] = tc.keys(i)
		}
		if got, want := r.RankDesc(tc.c, keys), rankOracle(tc.c, keys); !slices.Equal(got, want) {
			t.Fatalf("n=%d: a reused Ranking disagrees with the comparator at position %d", tc.n, firstDiff(got, want))
		}
	}
}

// FuzzRankDesc: whatever the keys — drawn from raw as special values, tied
// small integers, negatives or arbitrary bit patterns — and whatever the
// names, both rankings are their comparators' order.
func FuzzRankDesc(f *testing.F) {
	f.Add([]byte{}, uint16(25), true)
	f.Add([]byte{0, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40}, uint16(40), true)
	f.Add([]byte{1, 5, 9}, uint16(4000), false)
	f.Add([]byte{2, 0xff, 0x7f, 0x80, 0, 1, 2, 3, 4}, uint16(300), true)
	f.Add([]byte{3, 1, 7, 2}, uint16(10_020), false)
	f.Fuzz(func(t *testing.T, raw []byte, size uint16, own bool) {
		n := int(size) % 10_101
		keys := make([]float64, n)
		for i := range keys {
			if len(raw) == 0 {
				break
			}
			b := raw[i%len(raw)]
			switch b % 4 {
			case 0:
				keys[i] = specialKeys[int(b/4)%len(specialKeys)]
			case 1:
				keys[i] = float64(b/4%3) + 1
			case 2:
				var u uint64
				for k := range 8 {
					u = u<<8 | uint64(raw[(i+k)%len(raw)])
				}
				keys[i] = math.Float64frombits(u)
			default:
				keys[i] = -float64(b) / 7
			}
		}
		c := generatedNames(n)
		if own && n > 0 {
			c = ownNames(t, n)
		}
		checkRank(t, "fuzz", c, keys)
	})
}
