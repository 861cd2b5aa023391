package scenario

import (
	"math"
	"math/rand"
	"testing"

	"adept/internal/platform"
)

// tierOf is the positional definition of a FatTree node's tier: tier t
// holds 2^t shares of the pool, so with T tiers node i sits at the tier
// covering position i·(2^T−1)/N.
func tierOf(s Spec, i int) int {
	total := (1 << s.Tiers) - 1
	pos := i * total / s.N
	cum := 0
	for t := 0; t < s.Tiers; t++ {
		cum += 1 << t
		if pos < cum {
			return t
		}
	}
	return s.Tiers - 1
}

// positionalPowers draws the Clustered/ClusterGrid and FatTree power
// columns node by node from the positional definitions — cluster i mod
// Clusters, tier tierOf(i) — in node order, the rng stream powers must
// reproduce from its ranges.
func positionalPowers(s Spec) []float64 {
	rng := rand.New(rand.NewSource(s.Seed))
	out := make([]float64, s.N)
	switch s.Family {
	case Clustered, ClusterGrid:
		means := make([]float64, s.Clusters)
		ratio := s.MaxPower / s.MinPower
		for k := range means {
			frac := 0.5
			if s.Clusters > 1 {
				frac = float64(k) / float64(s.Clusters-1)
			}
			means[k] = s.MinPower * math.Pow(ratio, frac)
		}
		for i := range out {
			out[i] = jitter(rng, means[i%s.Clusters], s.Spread)
		}
	case FatTree:
		for i := range out {
			base := s.MaxPower / float64(int(1)<<tierOf(s, i))
			if base < s.MinPower {
				base = s.MinPower
			}
			out[i] = jitter(rng, base, s.Spread)
		}
	}
	return out
}

// TestLayoutRangesMatchPositions holds the range layout of generation to
// the positional definitions it replaces, for every N in 1..600: FatTree's
// tier bounds, links and powers against tierOf for 1 to 8 tiers, and
// ClusterGrid's links and powers against i mod Clusters for 1 to 8
// clusters. Powers are compared bit for bit, so the rng draw order is
// pinned too.
func TestLayoutRangesMatchPositions(t *testing.T) {
	for n := 1; n <= 600; n++ {
		for k := 1; k <= 8; k++ {
			ft := Spec{Family: FatTree, N: n, Seed: int64(n), Tiers: k}.withDefaults()
			bounds := ft.tierBounds()
			if len(bounds) != k+1 || bounds[0] != 0 || bounds[k] != n {
				t.Fatalf("fat-tree n=%d tiers=%d: bounds %v", n, k, bounds)
			}
			links := linksOf(ft)
			for tier := 0; tier < k; tier++ {
				for i := bounds[tier]; i < bounds[tier+1]; i++ {
					if want := tierOf(ft, i); tier != want {
						t.Fatalf("fat-tree n=%d tiers=%d: node %d in tier range %d, tierOf says %d", n, k, i, tier, want)
					}
					want := 0.0
					if tier > 0 {
						want = ft.Bandwidth / float64(int(1)<<tier)
					}
					if links[i] != want {
						t.Fatalf("fat-tree n=%d tiers=%d: node %d link %g, want %g", n, k, i, links[i], want)
					}
				}
			}
			samePowers(t, ft)

			if k > n {
				continue
			}
			cg := Spec{Family: ClusterGrid, N: n, Seed: int64(n), Clusters: k}.withDefaults()
			for i, l := range linksOf(cg) {
				want := 0.0
				if i%k != 0 {
					want = cg.InterBandwidth
				}
				if l != want {
					t.Fatalf("cluster-grid n=%d clusters=%d: node %d link %g, want %g", n, k, i, l, want)
				}
			}
			samePowers(t, cg)
		}
	}
}

// linksOf lays out the link column of a spec's pool (nil for the
// homogeneous-link families).
func linksOf(s Spec) []float64 {
	c := &platform.Columns{Powers: make([]float64, s.N)}
	s.layOut(c, 0, 0, nil, nil)
	return c.Links
}

func samePowers(t *testing.T, s Spec) {
	t.Helper()
	got, _, _ := s.powers(rand.New(rand.NewSource(s.Seed)), nil)
	for i, w := range positionalPowers(s) {
		if math.Float64bits(got[i]) != math.Float64bits(w) {
			t.Fatalf("%s n=%d clusters=%d tiers=%d: node %d power %v, positional %v", s.Family, s.N, s.Clusters, s.Tiers, i, got[i], w)
		}
	}
}
