package scenario_test

import (
	"context"
	"math"
	"slices"
	"testing"

	"adept/internal/platform"
	"adept/internal/scenario"
)

// sameAsReference holds the columns a spec generates to the columns the
// reference pipeline draws from it (Spec.ReferenceColumns: the raw draw,
// the Quantize oracle, a link column, the node-by-node validation): the
// same error word for word, or the same powers and links bit for bit, the
// same link range and digest, and the same classes — the same specs in the
// same order, the same counts, the same class for every node — as the hash
// of every node's spec over the reference's columns, which carry none.
// That hash is all core's buildClassIndexCapped does with columns that
// carry no classes. It reports whether the generated columns were classed
// as they were drawn: whether handing out their classes allocates nothing.
func sameAsReference(t testing.TB, spec scenario.Spec) (classed bool) {
	t.Helper()
	got, err := spec.Columns(context.Background(), nil)
	want, wantErr := spec.ReferenceColumns()
	if err != nil || wantErr != nil {
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%+v: error %v, reference %v", spec, err, wantErr)
		}
		return false
	}
	n := want.Len()
	if got.Len() != n {
		t.Fatalf("%+v: %d nodes, reference %d", spec, got.Len(), n)
	}
	for i := range n {
		gp, gl := got.Spec(i)
		wp, wl := want.Spec(i)
		if math.Float64bits(gp) != math.Float64bits(wp) || math.Float64bits(gl) != math.Float64bits(wl) {
			t.Fatalf("%+v: node %d is (%v, %v), reference (%v, %v)", spec, i, gp, gl, wp, wl)
		}
	}
	glo, ghi := got.LinkRange()
	if wlo, whi := want.LinkRange(); glo != wlo || ghi != whi {
		t.Fatalf("%+v: link range [%v, %v], reference [%v, %v]", spec, glo, ghi, wlo, whi)
	}
	if got.Digest() != want.Digest() {
		t.Fatalf("%+v: digest differs from the reference's", spec)
	}
	classes, classOf := got.Classes(n)
	wantClasses, wantOf := want.Classes(n)
	if len(classes) != len(wantClasses) {
		t.Fatalf("%+v: %d classes, hash %d", spec, len(classes), len(wantClasses))
	}
	for k, cl := range classes {
		w := wantClasses[k]
		if math.Float64bits(cl.Power) != math.Float64bits(w.Power) ||
			math.Float64bits(cl.LinkBandwidth) != math.Float64bits(w.LinkBandwidth) || cl.Count != w.Count {
			t.Fatalf("%+v: class %d is %+v, hash %+v", spec, k, cl, w)
		}
	}
	for i := range n {
		if classOf[i] != wantOf[i] {
			t.Fatalf("%+v: node %d in class %d, hash %d", spec, i, classOf[i], wantOf[i])
		}
	}
	// The cap gives up at the same count either way.
	if c, _ := got.Classes(len(wantClasses) - 1); c != nil {
		t.Fatalf("%+v: %d classes handed out under a cap of %d", spec, len(c), len(wantClasses)-1)
	}
	return testing.AllocsPerRun(1, func() { got.Classes(n) }) == 0
}

// classSpecs are the specs whose classes TestGeneratedClassesMatchHash
// checks beyond the grid of families, levels and sizes, and that seed
// FuzzSpecClasses: near-duplicate powers and degenerate ranges.
var classSpecs = []scenario.Spec{
	// Jitter below an ulp of 1 draws each power at its mean or an ulp
	// either side of it, which the levels snap away.
	{Family: scenario.Bimodal, N: 10_000, Seed: 3, Spread: 1e-16, PowerLevels: 2},
	{Family: scenario.Star, N: 10_000, Seed: 3, Spread: 1e-16, PowerLevels: 20},
	{Family: scenario.ClusterGrid, N: 100_000, Seed: 3, Spread: 1e-16, PowerLevels: 8},
	// One cluster within an ulp or two of its mean: classes an ulp apart,
	// and a step below an ulp of lo, so that neighbouring levels snap to
	// one power and their cells alias.
	{Family: scenario.Clustered, N: 10_000, Seed: 5, Clusters: 1, Spread: 1e-16, PowerLevels: 8},
	{Family: scenario.ClusterGrid, N: 10_000, Seed: 5, Clusters: 1, Spread: 1e-16, PowerLevels: 20},
	{Family: scenario.FatTree, N: 10_000, Seed: 5, Tiers: 1, Spread: 1e-16, PowerLevels: 8},
	// Links that underflow: past the tenth tier Bandwidth/2^t is 0, the
	// default link tier 0 has, so those tiers alias tier 0's cells; and an
	// uplink at a tenth of the least subnormal is the local site's 0.
	{Family: scenario.FatTree, N: 10_000, Seed: 7, Tiers: 14, Bandwidth: 1e-320, PowerLevels: 8},
	{Family: scenario.ClusterGrid, N: 10_000, Seed: 7, Bandwidth: 1e-320, PowerLevels: 8},
	{Family: scenario.ClusterGrid, N: 10_000, Seed: 7, Bandwidth: 5e-324, PowerLevels: 8},
	// The table sized by the pool: more levels times tiers than nodes.
	{Family: scenario.FatTree, N: 10_000, Seed: 1, Tiers: 30, PowerLevels: 400},
	{Family: scenario.FatTree, N: 100, Seed: 1, Tiers: 30, PowerLevels: 1 << 31},
	{Family: scenario.FatTree, N: 100, Seed: 1, Tiers: 30, PowerLevels: 1 << 62},
	// Draws that go out of range: negative, +Inf, NaN.
	{Family: scenario.PowerLaw, N: 10_000, Seed: 1, MaxPower: -5, PowerLevels: 8},
	{Family: scenario.ClusterGrid, N: 10_000, Seed: 1, MaxPower: -5, PowerLevels: 8},
	{Family: scenario.Star, N: 10_000, Seed: 1, Spread: 1e308, PowerLevels: 8},
	{Family: scenario.Star, N: 40, Seed: 1, Spread: 1e308},
	{Family: scenario.FatTree, N: 10_000, Seed: 1, Spread: 1e308, PowerLevels: 8},
}

// TestGeneratedClassesMatchHash: generation classes every quantised pool it
// can as it draws it, and those classes are exactly what hashing every
// node's spec finds, over every family, PowerLevels from unset to far past
// the pool, sizes either side of the four-digit name width and of the
// planner's class floor, and the near-duplicate and degenerate specs of
// classSpecs. Every pool whose level table fits it is classed; no other is.
func TestGeneratedClassesMatchHash(t *testing.T) {
	sizes := []int{2, 9_999, 10_000, 10_001, 100_000}
	if testing.Short() {
		sizes = sizes[:4]
	}
	for _, fam := range scenario.Families() {
		for _, levels := range []int{0, 1, 2, 8, 20, 1 << 20} {
			for _, n := range sizes {
				spec := scenario.Spec{Family: fam, N: n, Seed: int64(n + levels), PowerLevels: levels}
				linkClasses := map[scenario.Family]int{scenario.ClusterGrid: 2, scenario.FatTree: 3}[fam]
				want := levels >= 2 && levels*max(linkClasses, 1) <= n
				if classed := sameAsReference(t, spec); classed != want {
					t.Errorf("%s n=%d levels=%d: classed as drawn %v, want %v", fam, n, levels, classed, want)
				}
			}
		}
	}
	for _, spec := range classSpecs {
		sameAsReference(t, spec)
	}
}

// FuzzSpecClasses holds generation to the reference pipeline on fuzzed
// specs of up to 4 096 nodes: the classes it draws a pool in are the ones
// a hash of every node finds, or both fail with the same error.
func FuzzSpecClasses(f *testing.F) {
	add := func(s scenario.Spec) {
		fam := 0
		for i, g := range scenario.Families() {
			if g == s.Family {
				fam = i
			}
		}
		f.Add(uint8(fam), uint16(min(s.N, 4096)), s.Seed, int64(s.PowerLevels), s.MinPower, s.MaxPower, s.Spread,
			uint16(s.Clusters), uint8(s.Tiers), s.Bandwidth, s.InterBandwidth)
	}
	for _, fam := range scenario.Families() {
		for _, levels := range []int{0, 1, 2, 8, 20, 1 << 20} {
			add(scenario.Spec{Family: fam, N: 4096, Seed: 1, PowerLevels: levels})
		}
	}
	for _, s := range classSpecs {
		add(s)
	}
	// The service's bounds on what a client controls (internal/service).
	for _, levels := range []int{1 << 31, 1 << 62} {
		add(scenario.Spec{Family: scenario.FatTree, N: 4096, Seed: 1, Tiers: 30, PowerLevels: levels})
	}
	add(scenario.Spec{Family: scenario.ClusterGrid, N: 4096, Seed: 1, MaxPower: -1, PowerLevels: 8})
	add(scenario.Spec{Family: scenario.ClusterGrid, N: 4096, Seed: 1, Spread: 1e308, PowerLevels: 8})
	add(scenario.Spec{Family: scenario.ClusterGrid, N: 4096, Seed: 1, Bandwidth: 1e-320, PowerLevels: 8})
	f.Fuzz(func(t *testing.T, fam uint8, n uint16, seed, levels int64, minPower, maxPower, spread float64,
		clusters uint16, tiers uint8, bandwidth, inter float64) {
		families := scenario.Families()
		spec := scenario.Spec{
			Family: families[int(fam)%len(families)], N: int(n) % 4097, Seed: seed, PowerLevels: int(levels),
			MinPower: minPower, MaxPower: maxPower, Spread: spread, Clusters: int(clusters), Tiers: int(tiers),
			Bandwidth: bandwidth, InterBandwidth: inter,
		}
		sameAsReference(t, spec)
	})
}

// TestColumnsIntoUsedMemory: a spec drawn into columns another spec was
// drawn into last — a larger one, classed as it was drawn or carrying a
// link column — is the spec drawn fresh, bit for bit: the same name,
// bandwidth, powers and links, the same classes, classed as drawn or not
// alike, or the same error. The specs are generate_digests.json's corpus,
// every family at four power levels, and classSpecs, whose quantizers give
// up their class tables or never build one.
func TestColumnsIntoUsedMemory(t *testing.T) {
	specs := goldenSpecs()
	for _, fam := range scenario.Families() {
		for _, n := range []int{40, 4000, 10_001} {
			specs = append(specs, scenario.Spec{Family: fam, N: n, Seed: 3, PowerLevels: 4})
		}
	}
	specs = append(specs, classSpecs...)
	ctx := context.Background()
	mem := new(platform.Columns)
	for k, spec := range specs {
		last := scenario.Spec{Family: scenario.ClusterGrid, N: spec.N + spec.N/2 + 100, Seed: spec.Seed + 1, PowerLevels: 8}
		if k%2 == 1 {
			last = scenario.Spec{Family: scenario.FatTree, N: spec.N + spec.N/2 + 100, Seed: spec.Seed + 1}
		}
		if _, err := last.Columns(ctx, mem); err != nil {
			t.Fatalf("%+v: %v", last, err)
		}
		got, err := spec.Columns(ctx, mem)
		want, wantErr := spec.Columns(ctx, nil)
		if err != nil || wantErr != nil {
			if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
				t.Fatalf("%+v: error %v into used memory, %v fresh", spec, err, wantErr)
			}
			continue
		}
		if got != mem {
			t.Fatalf("%+v: drawn into new memory, not the memory it was handed", spec)
		}
		if got.Name != want.Name || math.Float64bits(got.Bandwidth) != math.Float64bits(want.Bandwidth) || got.Len() != want.Len() {
			t.Fatalf("%+v: %q at %v with %d nodes into used memory, %q at %v with %d fresh",
				spec, got.Name, got.Bandwidth, got.Len(), want.Name, want.Bandwidth, want.Len())
		}
		n := want.Len()
		for i := range n {
			gp, gl := got.Spec(i)
			wp, wl := want.Spec(i)
			if math.Float64bits(gp) != math.Float64bits(wp) || math.Float64bits(gl) != math.Float64bits(wl) {
				t.Fatalf("%+v: node %d is (%v, %v) into used memory, (%v, %v) fresh", spec, i, gp, gl, wp, wl)
			}
		}
		if (got.Links == nil) != (want.Links == nil) {
			t.Fatalf("%+v: link column %v into used memory, %v fresh", spec, got.Links != nil, want.Links != nil)
		}
		// Columns classed as drawn hand their classes out without a pass.
		var classes, wantClasses []platform.SpecClass
		var classOf, wantOf []int32
		classed := testing.AllocsPerRun(1, func() { classes, classOf = got.Classes(n) }) == 0
		wantClassed := testing.AllocsPerRun(1, func() { wantClasses, wantOf = want.Classes(n) }) == 0
		if classed != wantClassed {
			t.Fatalf("%+v: classed as drawn %v into used memory, %v fresh", spec, classed, wantClassed)
		}
		if !slices.EqualFunc(classes, wantClasses, sameClass) || !slices.Equal(classOf, wantOf) {
			t.Fatalf("%+v: classes differ from a fresh draw's", spec)
		}
	}
}

// sameClass reports whether two spec classes are one bit for bit.
func sameClass(a, b platform.SpecClass) bool {
	return math.Float64bits(a.Power) == math.Float64bits(b.Power) &&
		math.Float64bits(a.LinkBandwidth) == math.Float64bits(b.LinkBandwidth) && a.Count == b.Count
}
