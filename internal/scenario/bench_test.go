package scenario_test

import (
	"testing"

	"adept/internal/platform"
	"adept/internal/scenario"
)

// BenchmarkSpecColumns100k is generation alone on fleet_cold's shape: a
// 100 000-node catalogue scenario (8 power levels) nobody has drawn
// before — a new seed every iteration, cluster-grid and fat-tree
// alternating — drawn into one reused platform.Columns, as a daemon's job
// memory is. It reads the pool twice: the draw, which returns the
// column's range, and one snap-and-class pass over the link layout.
func BenchmarkSpecColumns100k(b *testing.B) {
	families := []scenario.Family{scenario.ClusterGrid, scenario.FatTree}
	mem := new(platform.Columns)
	ctx := b.Context()
	for _, fam := range families {
		if _, err := (scenario.Spec{Family: fam, N: 100_000, Seed: 999, PowerLevels: 8}).Columns(ctx, mem); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := scenario.Spec{Family: families[i%2], N: 100_000, Seed: int64(1000 + i), PowerLevels: 8}
		if _, err := spec.Columns(ctx, mem); err != nil {
			b.Fatal(err)
		}
	}
}
