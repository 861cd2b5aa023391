package scenario

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"adept/internal/platform"
)

// TestLoadSubsetIsPermsHead holds loadSubset to what it replays: the
// first loaded entries of rng.Perm(n), the k-th loaded to factor k mod 3,
// and the stream Perm leaves behind — for every head length, none and
// more than a third of the pool included, into memory holding an earlier
// draw.
func TestLoadSubsetIsPermsHead(t *testing.T) {
	out := make([]float64, 0, 64)
	for n := 1; n <= 64; n++ {
		for loaded := -1; loaded <= n; loaded++ {
			for seed := range int64(3) {
				want := make([]float64, n)
				for i := range want {
					want[i] = -4
				}
				ref := rand.New(rand.NewSource(seed))
				for k, node := range ref.Perm(n)[:max(loaded, 0)] {
					want[node] = float64(-1 - k%3)
				}
				rng := rand.New(rand.NewSource(seed))
				out = out[:n]
				loadSubset(rng, out, loaded)
				for i := range want {
					if out[i] != want[i] {
						t.Fatalf("n=%d loaded=%d seed=%d: node %d has code %v, want %v", n, loaded, seed, i, out[i], want[i])
					}
				}
				if got, want := rng.Int63(), ref.Int63(); got != want {
					t.Fatalf("n=%d loaded=%d seed=%d: the stream after the draw is not Perm's", n, loaded, seed)
				}
			}
		}
	}
}

// TestTracePerturbedDrawAllocatesNoPool: a 100 000-node trace-perturbed
// draw into reused columns picks its loaded nodes in the power column
// itself, so it allocates what the other families do (the source, a few
// KiB), not a pool-sized permutation (~800 KB). Not under the race
// detector, which allocates on its own account.
func TestTracePerturbedDrawAllocatesNoPool(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's runtime allocates on the program's account")
	}
	mem := new(platform.Columns)
	ctx := context.Background()
	draw := func(seed int64) {
		if _, err := (Spec{Family: TracePerturbed, N: 100_000, Seed: seed}).Columns(ctx, mem); err != nil {
			t.Fatal(err)
		}
	}
	draw(0)
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for seed := range int64(runs) {
		draw(1 + seed)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 64<<10 {
		t.Errorf("a 100k trace-perturbed draw into reused columns allocated %d bytes, want < 64 KiB", per)
	}
}
