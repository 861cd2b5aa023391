// Package scenario generates families of synthetic target platforms for
// stress-testing, fuzzing, and benchmarking the deployment planners far
// beyond the two Grid'5000 sites of the paper's evaluation.
//
// A Spec is a declarative description (family, size, bandwidth, seed, and a
// few family knobs) that is expanded only as far as its consumer needs.
// Columns draws its columnar form — a power column, a link column, and
// names that are a function of the index (platform.Columns): everything the
// class-collapsed planner reads of a fleet, at sixteen bytes a node.
// Generate is defined as the expansion of that form into a concrete
// platform.Platform, one named Node per index, for the callers that need a
// whole platform (deployment, the autonomic loop, the CLI, every planner
// but the heuristic) — so the two cannot drift. Generation is strictly
// deterministic: the same Spec always yields byte-identical columns and a
// byte-identical platform, regardless of how many goroutines generate
// concurrently — every Spec draws from its own seeded source and node
// construction is a plain ordered loop (no map iteration).
//
// The families model the heterogeneity shapes deployment planners meet in
// practice:
//
//   - Star: one powerful head node and a sea of uniform weak leaves — the
//     shape that rewards a flat star deployment.
//   - Bimodal: two node classes (e.g. an old and a new cluster
//     generation), the canonical "two-site" heterogeneity.
//   - PowerLaw: Pareto-distributed powers, a few very strong nodes and a
//     long weak tail — desktop-grid style.
//   - Clustered: k homogeneous-ish clusters with distinct means and small
//     intra-cluster jitter — federated clusters, the closest family to
//     the paper's Lyon+Orsay testbed.
//   - TracePerturbed: the paper's §5.3 heterogenisation replayed
//     synthetically — a homogeneous cluster with background load stealing
//     fixed power fractions from a seeded node subset, plus measurement
//     jitter.
//   - ClusterGrid: the Clustered power shape plus heterogeneous *links* —
//     cluster 0 keeps the fast platform bandwidth while every other
//     cluster sits behind a slow inter-cluster uplink. The multi-site
//     grid (Lyon + Orsay over the WAN) the heterogeneous-links planner
//     exists for.
//   - FatTree: a fat-tree-ish bandwidth taper — a few powerful core nodes
//     on fat links, geometrically more nodes per tier on links that halve
//     tier by tier.
//
// Corpus returns a representative cross product of families and sizes used
// by the property tests (internal/core), the portfolio tests
// (internal/portfolio), and the planner benchmarks.
package scenario

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"adept/internal/platform"
)

// Family names a platform-generation family.
type Family string

// The supported families.
const (
	Star           Family = "star"
	Bimodal        Family = "bimodal"
	PowerLaw       Family = "power-law"
	Clustered      Family = "clustered"
	TracePerturbed Family = "trace-perturbed"
	ClusterGrid    Family = "cluster-grid"
	FatTree        Family = "fat-tree"
)

// Families lists all families in stable order. The heterogeneous-link
// families come last so pre-existing (family, size) seed derivations stay
// stable.
func Families() []Family {
	return []Family{Star, Bimodal, PowerLaw, Clustered, TracePerturbed, ClusterGrid, FatTree}
}

// Spec declaratively describes one synthetic platform. Zero-valued knobs
// take family defaults (withDefaults), so {Family, N, Bandwidth, Seed} is a
// complete spec.
type Spec struct {
	Family Family `json:"family"`
	// Name labels the platform; defaults to "<family>-n<N>-s<Seed>".
	Name string `json:"name,omitempty"`
	// N is the pool size (minimum 2: one agent, one server).
	N int `json:"n"`
	// Bandwidth is the homogeneous link bandwidth in Mb/s (default 100).
	Bandwidth float64 `json:"bandwidth_mbps,omitempty"`
	// Seed drives all randomness of this spec.
	Seed int64 `json:"seed"`

	// HubFactor (Star) is the head node's power multiple of the leaf mean
	// (default 8).
	HubFactor float64 `json:"hub_factor,omitempty"`
	// LeafPower (Star) is the mean leaf power in MFlop/s (default 200).
	LeafPower float64 `json:"leaf_power,omitempty"`

	// HighFraction (Bimodal) is the fraction of high-power nodes
	// (default 0.25).
	HighFraction float64 `json:"high_fraction,omitempty"`
	// LowPower and HighPower (Bimodal) are the two class means
	// (defaults 150 and 1200).
	LowPower  float64 `json:"low_power,omitempty"`
	HighPower float64 `json:"high_power,omitempty"`

	// Alpha (PowerLaw) is the Pareto shape (default 1.6; smaller = heavier
	// tail).
	Alpha float64 `json:"alpha,omitempty"`
	// MinPower and MaxPower (PowerLaw, Clustered) bound the node powers
	// (defaults 50 and 4000).
	MinPower float64 `json:"min_power,omitempty"`
	MaxPower float64 `json:"max_power,omitempty"`

	// Clusters (Clustered) is the cluster count (default 4).
	Clusters int `json:"clusters,omitempty"`
	// Spread (Clustered, TracePerturbed) is the relative intra-cluster /
	// measurement jitter (default 0.05).
	Spread float64 `json:"spread,omitempty"`

	// BasePower (TracePerturbed) is the unloaded node power (default 400,
	// the repo's Grid'5000-class reference calibration).
	BasePower float64 `json:"base_power,omitempty"`
	// LoadFraction (TracePerturbed) is the fraction of nodes running
	// background load (default 0.6, the §5.3 setup).
	LoadFraction float64 `json:"load_fraction,omitempty"`

	// InterBandwidth (ClusterGrid) is the uplink bandwidth of every
	// cluster but the local one, in Mb/s (default Bandwidth/10).
	InterBandwidth float64 `json:"inter_bandwidth_mbps,omitempty"`
	// PowerLevels, when at least 1, snaps the drawn node powers to that
	// many evenly spaced levels over the drawn [min, max] range — a
	// machine-catalogue quantisation: real fleets buy from L SKUs, they do
	// not draw from a continuum. Quantised pools compress into few (power,
	// link) equivalence classes, the regime the class-collapsed planner
	// exploits; 0 (the default) keeps the continuous draw untouched. The
	// snap is a post-pass over the power vector, so it never perturbs the
	// spec's random stream: PowerLevels=0 stays byte-identical to specs
	// that predate the knob.
	PowerLevels int `json:"power_levels,omitempty"`
	// Tiers (FatTree) is the number of bandwidth tiers (default 3): tier t
	// runs its links at Bandwidth/2^t and holds twice the nodes of tier
	// t-1.
	Tiers int `json:"tiers,omitempty"`
}

// withDefaults fills zero-valued knobs.
func (s Spec) withDefaults() Spec {
	if s.Bandwidth == 0 {
		s.Bandwidth = 100
	}
	if s.Name == "" {
		s.Name = fmt.Sprintf("%s-n%d-s%d", s.Family, s.N, s.Seed)
	}
	if s.HubFactor == 0 {
		s.HubFactor = 8
	}
	if s.LeafPower == 0 {
		s.LeafPower = 200
	}
	if s.HighFraction == 0 {
		s.HighFraction = 0.25
	}
	if s.LowPower == 0 {
		s.LowPower = 150
	}
	if s.HighPower == 0 {
		s.HighPower = 1200
	}
	if s.Alpha == 0 {
		s.Alpha = 1.6
	}
	if s.MinPower == 0 {
		s.MinPower = 50
	}
	if s.MaxPower == 0 {
		s.MaxPower = 4000
	}
	if s.Clusters == 0 {
		s.Clusters = 4
	}
	if s.Spread == 0 {
		s.Spread = 0.05
	}
	if s.BasePower == 0 {
		s.BasePower = 400
	}
	if s.LoadFraction == 0 {
		s.LoadFraction = 0.6
	}
	if s.InterBandwidth == 0 {
		s.InterBandwidth = s.Bandwidth / 10
	}
	if s.Tiers == 0 {
		s.Tiers = 3
	}
	return s
}

const (
	// maxTiers bounds Spec.Tiers: tier t runs at Bandwidth/2^t, and past a
	// few dozen halvings the shift that computes it overflows.
	maxTiers = 30
	// maxNameLen bounds Spec.Name, which every generated node name repeats:
	// N copies of a long one is a large platform from a small spec.
	maxNameLen = 256
)

// Validate is the O(1) part of what Generate checks: the family is known,
// the pool has room for an agent and a server, and no knob holds a value
// generation cannot run on. A spec that passes can still generate an
// invalid platform (a negative power knob, say); Columns reports that.
func (s Spec) Validate() error {
	if !slices.Contains(Families(), s.Family) {
		return fmt.Errorf("scenario: unknown family %q (have %v)", s.Family, Families())
	}
	if s.N < 2 {
		return fmt.Errorf("scenario: N must be at least 2, got %d", s.N)
	}
	if len(s.Name) > maxNameLen {
		return fmt.Errorf("scenario: name of %d bytes exceeds the limit of %d", len(s.Name), maxNameLen)
	}
	if s.Bandwidth < 0 {
		return fmt.Errorf("scenario: bandwidth must be positive, got %g", s.Bandwidth)
	}
	if s.Clusters < 0 || s.Clusters > s.N {
		return fmt.Errorf("scenario: clusters must be in [0, N=%d], got %d", s.N, s.Clusters)
	}
	if s.Tiers < 0 || s.Tiers > maxTiers {
		return fmt.Errorf("scenario: tiers must be in [0, %d], got %d", maxTiers, s.Tiers)
	}
	return nil
}

// digestDomain opens every spec digest; see platform.Platform.Digest. It
// names the generator as much as the encoding: bump it whenever Generate
// would expand an existing spec into a different platform.
const digestDomain = "adept/scenario/v1\x00"

// Digest is the content address of the platform the spec generates,
// computed from the spec alone: the SHA-256 of the canonical spec — every
// knob at its effective value, so a spec that spells a default out digests
// like one that leaves it zero — in a fixed-width, length-prefixed
// encoding. Generation is a pure function of the canonical spec, so equal
// digests mean byte-identical platforms; the digest never equals a
// platform.Platform digest (different domain), even of the platform the
// spec expands to.
func (s Spec) Digest() [sha256.Size]byte {
	s = s.withDefaults()
	buf := make([]byte, 0, 256)
	buf = append(buf, digestDomain...)
	for _, str := range [...]string{string(s.Family), s.Name} {
		buf = binary.BigEndian.AppendUint64(buf, uint64(len(str)))
		buf = append(buf, str...)
	}
	for _, v := range [...]int64{int64(s.N), s.Seed, int64(s.Clusters), int64(s.PowerLevels), int64(s.Tiers)} {
		buf = binary.BigEndian.AppendUint64(buf, uint64(v))
	}
	for _, v := range [...]float64{
		s.Bandwidth, s.HubFactor, s.LeafPower, s.HighFraction, s.LowPower, s.HighPower,
		s.Alpha, s.MinPower, s.MaxPower, s.Spread, s.BasePower, s.LoadFraction, s.InterBandwidth,
	} {
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return sha256.Sum256(buf)
}

// Columns draws the platform the spec describes in columnar form: the power
// and link columns, range-checked, with names left as a function of the
// index (platform.Columns). It is all of generation that costs anything —
// every random draw, every validity check — and all the class-collapsed
// planner reads; Generate is its expansion. The result is deterministic in
// the spec. Columns polls ctx once, between drawing the powers and laying
// out the links, and gives up with ctx's error once it has fired.
func (s Spec) Columns(ctx context.Context) (*platform.Columns, error) {
	return s.columns(ctx.Err)
}

// Generate expands the spec into a validated platform: Columns, then
// platform.Columns.Platform. The result is deterministic in the spec
// (byte-identical JSON across calls and goroutines).
func (s Spec) Generate() (*platform.Platform, error) {
	c, err := s.columns(func() error { return nil })
	if err != nil {
		return nil, err
	}
	return c.Platform(), nil
}

// columns is Columns; interrupted is polled between drawing the powers and
// laying out the links and aborts the generation with the error it returns.
func (s Spec) columns(interrupted func() error) (*platform.Columns, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	s = s.withDefaults()
	rng := rand.New(rand.NewSource(s.Seed))
	powers := s.powers(rng)
	if err := interrupted(); err != nil {
		return nil, err
	}
	c := &platform.Columns{Name: s.Name, Bandwidth: s.Bandwidth, Powers: powers, Links: s.links()}
	// Names are unique by construction (platform.Columns.NodeName is
	// injective); what a spec from outside can still get wrong — a knob that
	// drives a power negative, a spread that overflows one — is a range.
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: generated invalid platform: %w", err)
	}
	return c, nil
}

// links returns the per-node link-bandwidth overrides (0 = platform
// default), or nil for the homogeneous-link families. Link assignment is
// purely positional — no randomness — so it never perturbs the power
// stream of the shared rng.
func (s Spec) links() []float64 {
	switch s.Family {
	case ClusterGrid:
		// Cluster 0 is the local site (default bandwidth); every other
		// cluster is reached over the inter-cluster uplink.
		out := make([]float64, s.N)
		for i := range out {
			if i%s.Clusters != 0 {
				out[i] = s.InterBandwidth
			}
		}
		return out
	case FatTree:
		out := make([]float64, s.N)
		for i := range out {
			t := s.tierOf(i)
			if t > 0 {
				out[i] = s.Bandwidth / float64(int(1)<<t)
			}
		}
		return out
	default:
		return nil
	}
}

// tierOf maps a FatTree node index to its bandwidth tier: tier t holds
// 2^t shares of the pool (1, 2, 4, … — leaves outnumber core nodes), so
// with T tiers node i sits at the tier covering position i·(2^T−1)/N.
func (s Spec) tierOf(i int) int {
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

// jitter multiplies base by a clamped relative gaussian perturbation.
func jitter(rng *rand.Rand, base, spread float64) float64 {
	f := 1 + spread*rng.NormFloat64()
	if f < 0.1 {
		f = 0.1
	}
	return base * f
}

// powers draws the node power vector, in node order, for a validated spec.
func (s Spec) powers(rng *rand.Rand) []float64 {
	out := make([]float64, s.N)
	switch s.Family {
	case Star:
		out[0] = s.HubFactor * s.LeafPower
		for i := 1; i < s.N; i++ {
			out[i] = jitter(rng, s.LeafPower, s.Spread)
		}
	case Bimodal:
		high := int(math.Round(s.HighFraction * float64(s.N)))
		if high < 1 {
			high = 1
		}
		for i := 0; i < s.N; i++ {
			base := s.LowPower
			if i < high {
				base = s.HighPower
			}
			out[i] = jitter(rng, base, s.Spread)
		}
	case PowerLaw:
		for i := 0; i < s.N; i++ {
			// Pareto(MinPower, Alpha), clamped at MaxPower.
			u := rng.Float64()
			w := s.MinPower * math.Pow(1-u, -1/s.Alpha)
			if w > s.MaxPower {
				w = s.MaxPower
			}
			out[i] = w
		}
	case Clustered, ClusterGrid:
		// Cluster means spread geometrically across [MinPower, MaxPower];
		// nodes assigned round-robin so every cluster is populated.
		// ClusterGrid shares the power shape and adds heterogeneous links
		// (see Spec.links).
		means := make([]float64, s.Clusters)
		ratio := s.MaxPower / s.MinPower
		for k := 0; k < s.Clusters; k++ {
			frac := 0.5
			if s.Clusters > 1 {
				frac = float64(k) / float64(s.Clusters-1)
			}
			means[k] = s.MinPower * math.Pow(ratio, frac)
		}
		for i := 0; i < s.N; i++ {
			out[i] = jitter(rng, means[i%s.Clusters], s.Spread)
		}
	case FatTree:
		// Core nodes (low tiers) are the strong ones; power halves with
		// the link bandwidth tier, floored at MinPower.
		for i := 0; i < s.N; i++ {
			base := s.MaxPower / float64(int(1)<<s.tierOf(i))
			if base < s.MinPower {
				base = s.MinPower
			}
			out[i] = jitter(rng, base, s.Spread)
		}
	case TracePerturbed:
		// §5.3 replayed: a homogeneous cluster, background load pinning a
		// seeded subset to 1/4, 1/2 or 3/4 of its power, plus measurement
		// jitter on every node.
		factors := []float64{0.25, 0.5, 0.75}
		perm := rng.Perm(s.N)
		loaded := int(s.LoadFraction * float64(s.N))
		for i := 0; i < s.N; i++ {
			out[i] = s.BasePower
		}
		for k := 0; k < loaded; k++ {
			out[perm[k]] *= factors[k%len(factors)]
		}
		for i := 0; i < s.N; i++ {
			out[i] = jitter(rng, out[i], s.Spread/5)
		}
	}
	s.quantize(out)
	return out
}

// quantize snaps the power vector to PowerLevels evenly spaced levels over
// its own [min, max] range (no-op when the knob is unset or the vector is
// constant). Runs after all random draws so the rng stream is untouched.
func (s Spec) quantize(out []float64) {
	if s.PowerLevels < 1 || len(out) == 0 {
		return
	}
	lo, hi := out[0], out[0]
	for _, w := range out {
		if w < lo {
			lo = w
		}
		if w > hi {
			hi = w
		}
	}
	if lo == hi {
		return
	}
	if s.PowerLevels == 1 {
		for i := range out {
			out[i] = lo
		}
		return
	}
	step := (hi - lo) / float64(s.PowerLevels-1)
	for i := range out {
		out[i] = lo + math.Round((out[i]-lo)/step)*step
	}
}

// Corpus returns one spec per (family, size) pair, seeds derived from the
// base seed. It is the shared test/benchmark corpus: small enough to
// enumerate in tests, diverse enough to cover every planner regime.
func Corpus(seed int64, sizes ...int) []Spec {
	if len(sizes) == 0 {
		sizes = []int{4, 12, 40, 120}
	}
	var specs []Spec
	for fi, fam := range Families() {
		for si, n := range sizes {
			specs = append(specs, Spec{
				Family: fam,
				N:      n,
				Seed:   seed + int64(fi*1000+si),
			})
		}
	}
	return specs
}
