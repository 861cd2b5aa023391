// Package scenario generates families of synthetic target platforms for
// stress-testing, fuzzing, and benchmarking the deployment planners far
// beyond the two Grid'5000 sites of the paper's evaluation.
//
// A Spec is a declarative description (family, size, bandwidth, seed, and a
// few family knobs) that is expanded only as far as its consumer needs.
// Columns draws its columnar form — a power column, a link column, and
// names that are a function of the index (platform.Columns): everything the
// class-collapsed planner reads of a fleet, at sixteen bytes a node. A
// quantised spec (PowerLevels) is classed as it is drawn: the pass that
// snaps each power to its level also assigns the node its (power, link)
// class, and the columns carry that assignment — the classes hold the
// links, so there is no link column — so that no consumer hashes the pool
// back into the few classes it was drawn from.
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
	"sort"

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
	// that predate the knob. The draw hands it the range it snaps over, so
	// a quantised pool is read twice, by the draw and by the snap. The
	// snap also classifies: at 2 levels or more it assigns each node its
	// class as it snaps it, through a table of levels × link classes that
	// must fit in the pool (a larger knob is only snapped, and its pool
	// classed by whoever needs it).
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
	// A fraction at or below 0 loads no node; above 1 there are not the
	// nodes to load. Only TracePerturbed reads it.
	if s.Family == TracePerturbed && s.LoadFraction > 1 {
		return fmt.Errorf("scenario: load fraction must be at most 1, got %g", s.LoadFraction)
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
// and link columns — or, for a quantised spec, the powers and the classes
// they were drawn in — range-checked, with names left as a function of the
// index (platform.Columns). It is all of generation that costs anything —
// every random draw, every validity check — and all the class-collapsed
// planner reads; Generate is its expansion. The result is deterministic in
// the spec. Columns polls ctx once, between drawing the powers and laying
// out the links, and gives up with ctx's error once it has fired.
//
// A nil into allocates the columns. Otherwise they are drawn into *into,
// which Columns returns: its power, link and class columns are grown in
// place (platform.Columns.Recycle), so a caller that draws pool after pool
// through one Columns allocates only when a pool outgrows the last. The
// result then lives in into's memory and is overwritten by the next draw
// into it.
func (s Spec) Columns(ctx context.Context, into *platform.Columns) (*platform.Columns, error) {
	return s.columns(ctx.Err, into)
}

// Generate expands the spec into a validated platform: Columns, then
// platform.Columns.Platform. The result is deterministic in the spec
// (byte-identical JSON across calls and goroutines).
func (s Spec) Generate() (*platform.Platform, error) {
	c, err := s.columns(func() error { return nil }, nil)
	if err != nil {
		return nil, err
	}
	return c.Platform(), nil
}

// columns is Columns; interrupted is polled between drawing the powers and
// laying out the links and aborts the generation with the error it returns.
func (s Spec) columns(interrupted func() error, into *platform.Columns) (*platform.Columns, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	s = s.withDefaults()
	c := into
	if c == nil {
		c = new(platform.Columns)
	}
	powers, links, classOf := c.Recycle()
	rng := rand.New(rand.NewSource(s.Seed))
	powers, lo, hi := s.powers(rng, powers)
	if err := interrupted(); err != nil {
		return nil, err
	}
	c.Name, c.Bandwidth, c.Powers = s.Name, s.Bandwidth, powers
	s.layOut(c, lo, hi, links, classOf)
	// Names are unique by construction (platform.Columns.NodeName is
	// injective); what a spec from outside can still get wrong — a knob that
	// drives a power negative, a spread that overflows one — is a range.
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: generated invalid platform: %w", err)
	}
	return c, nil
}

// linkLayout is where a spec's nodes sit on the network: every node is in
// one positional link class, and the pool repeats, every period nodes, the
// same runs of classes — class k at offsets [bounds[k], bounds[k+1]) from
// the period's start. Link assignment is purely positional — no
// randomness — so it never perturbs the power stream of the shared rng.
type linkLayout struct {
	period int
	bounds []int
	// links holds each class's raw link override (0 = platform default),
	// or is nil for the homogeneous-link families: one class, no column.
	links []float64
}

// linkLayout returns the spec's link layout. ClusterGrid deals nodes
// round-robin (see powers), so node i sits in cluster i mod Clusters:
// cluster 0 is the local site (the default bandwidth), every other cluster
// is reached over the inter-cluster uplink. FatTree's classes are its
// tiers, tier t over tierBounds' range t at Bandwidth/2^t (the default for
// tier 0). Every other family is one class on the default bandwidth.
func (s Spec) linkLayout() linkLayout {
	switch s.Family {
	case ClusterGrid:
		return linkLayout{period: s.Clusters, bounds: []int{0, 1, s.Clusters}, links: []float64{0, s.InterBandwidth}}
	case FatTree:
		links := make([]float64, s.Tiers)
		for t := 1; t < s.Tiers; t++ {
			links[t] = s.Bandwidth / float64(int(1)<<t)
		}
		return linkLayout{period: s.N, bounds: s.tierBounds(), links: links}
	default:
		return linkLayout{period: s.N, bounds: []int{0, s.N}}
	}
}

// layOut completes drawn columns, whose powers range over [lo, hi]: it
// snaps the powers to PowerLevels and, when the quantizer has a class
// table, classes the pool in the same pass (platform.Columns.Classify), so
// that no consumer hashes every node's spec back into the few classes it
// was drawn from. The classes then hold the links; any other pool of a
// heterogeneous-link family gets a link column, filled run by run of the
// layout. The class column is grown from classOf and the link column from
// links, both empty: every entry is written before anything reads it.
func (s Spec) layOut(c *platform.Columns, lo, hi float64, links []float64, classOf []int32) {
	lay := s.linkLayout()
	if q := s.quantizer(c.Powers, lo, hi, lay.links, classOf); q != nil {
		q.snap(c.Powers, &lay)
		if q.cells != nil {
			c.Classify(q.classes, q.classOf)
			return
		}
	}
	if lay.links != nil {
		c.Links = slices.Grow(links, s.N)[:s.N]
		for start := 0; start < s.N; start += lay.period {
			for k, link := range lay.links {
				run := c.Links[start+lay.bounds[k] : min(start+lay.bounds[k+1], s.N)]
				for i := range run {
					run[i] = link
				}
			}
		}
	}
}

// tierBounds lays the FatTree tiers out as index ranges: tier t holds
// nodes [bounds[t], bounds[t+1]), and bounds[Tiers] = N. Tier t holds 2^t
// shares of the pool (1, 2, 4, … — leaves outnumber core nodes), so with T
// tiers node i sits at the tier covering position i·(2^T−1)/N, and tier t
// opens at the first node whose position reaches the 2^t−1 shares before
// it.
func (s Spec) tierBounds() []int {
	total := (1 << s.Tiers) - 1
	bounds := make([]int, s.Tiers+1)
	for t := 1; t < s.Tiers; t++ {
		// The least i with i·total/N ≥ 2^t−1 in integer division is the
		// least i with i·total ≥ (2^t−1)·N.
		bounds[t] = (((1<<t)-1)*s.N + total - 1) / total
	}
	bounds[s.Tiers] = s.N
	return bounds
}

// jitter multiplies base by a clamped relative gaussian perturbation.
func jitter(rng *rand.Rand, base, spread float64) float64 {
	f := 1 + spread*rng.NormFloat64()
	if f < 0.1 {
		f = 0.1
	}
	return base * f
}

// powers draws the node power vector, in node order, for a validated spec,
// into out (empty) grown to the pool: every family writes every entry. It
// returns the column's range too, taken as each entry gets its final
// value: lo and hi are the least and the greatest power, as a scan from
// node 0 that skips NaN finds them — NaN both when node 0's power is NaN.
func (s Spec) powers(rng *rand.Rand, out []float64) (col []float64, lo, hi float64) {
	out = slices.Grow(out, s.N)[:s.N]
	r := span{lo: math.Inf(1), hi: math.Inf(-1)}
	switch s.Family {
	case Star:
		out[0] = r.put(s.HubFactor * s.LeafPower)
		for i := 1; i < s.N; i++ {
			out[i] = r.put(jitter(rng, s.LeafPower, s.Spread))
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
			out[i] = r.put(jitter(rng, base, s.Spread))
		}
	case PowerLaw:
		for i := 0; i < s.N; i++ {
			// Pareto(MinPower, Alpha), clamped at MaxPower.
			u := rng.Float64()
			w := s.MinPower * math.Pow(1-u, -1/s.Alpha)
			if w > s.MaxPower {
				w = s.MaxPower
			}
			out[i] = r.put(w)
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
		for i := 0; i < s.N; i += s.Clusters {
			for k, mean := range means[:min(s.Clusters, s.N-i)] {
				out[i+k] = r.put(jitter(rng, mean, s.Spread))
			}
		}
	case FatTree:
		// Core nodes (low tiers) are the strong ones; power halves with
		// the link bandwidth tier, floored at MinPower.
		bounds := s.tierBounds()
		for t := 0; t < s.Tiers; t++ {
			base := s.MaxPower / float64(int(1)<<t)
			if base < s.MinPower {
				base = s.MinPower
			}
			for i := bounds[t]; i < bounds[t+1]; i++ {
				out[i] = r.put(jitter(rng, base, s.Spread))
			}
		}
	case TracePerturbed:
		// §5.3 replayed: a homogeneous cluster, background load pinning a
		// seeded subset to 1/4, 1/2 or 3/4 of its power, plus measurement
		// jitter on every node.
		factors := [...]float64{0.25, 0.5, 0.75, 1}
		loadSubset(rng, out, int(s.LoadFraction*float64(s.N)))
		for i, code := range out {
			out[i] = r.put(jitter(rng, s.BasePower*factors[int(-1-code)], s.Spread/5))
		}
	}
	if math.IsNaN(out[0]) {
		return out, out[0], out[0]
	}
	return out, r.lo, r.hi
}

// loadSubset picks the nodes that carry background load as the first
// loaded entries of rng.Perm(len(out)) and leaves in out[i] node i's load
// code: −1−(k mod 3) when it is the k-th entry, −4 when it is idle. It
// draws what Perm draws, so the stream that follows is Perm's, but keeps
// only the entries ever read, in out itself: Perm's step m[i] = m[j];
// m[j] = i is taken for i < loaded, and for a later i only its write below
// loaded matters.
func loadSubset(rng *rand.Rand, out []float64, loaded int) {
	const idle = -4
	for i := range out {
		j := rng.Intn(i + 1)
		if i < loaded {
			out[i] = out[j]
		}
		if j < loaded {
			out[j] = float64(i)
		}
	}
	for i := max(loaded, 0); i < len(out); i++ {
		out[i] = idle
	}
	// Scatter the head's node indices (≥ 0) into codes (< 0) in place: a
	// code lands on its node, and a node in the head whose entry is not yet
	// scattered hands that entry on to be scattered next.
	for k := range loaded {
		if out[k] < 0 {
			continue
		}
		node, at := out[k], k
		out[k] = idle
		for node >= 0 {
			next := int(node)
			node, out[next] = out[next], float64(-1-at%3)
			at = next
		}
	}
}

// span is the range of the values a column is written with. Every family
// writes its final values in node order, so from [+Inf, −Inf] it meets
// them as a scan of the column would: a NaN moves neither bound, and of
// −0 and +0 the first met is kept.
type span struct{ lo, hi float64 }

// put widens the span to w and returns w.
func (r *span) put(w float64) float64 {
	if w < r.lo {
		r.lo = w
	}
	if w > r.hi {
		r.hi = w
	}
	return w
}

// quantizer snaps a power column to PowerLevels evenly spaced levels over
// its own [min, max] range, node for node lo + round((w−lo)/step)·step —
// a machine catalogue of PowerLevels SKUs — and, where it can, classes the
// pool as it snaps it: a node's level and its link class pick a cell of a
// small direct table, levels × link classes, and the cell holds the
// node's class and counts its members there. The classes are those a hash
// of every node's (power, link) bits would find
// (platform.Columns.Classes), in the same order of first appearance:
// cells whose snapped specs share their bits — two levels that round to
// one power, two tiers whose links underflow to one — are one class.
//
// The draw hands it the column's range, lo and hi, so it reads no power
// itself. It returns nil when there is nothing to snap: the knob is unset,
// or the column constant. PowerLevels 1 snaps every power to the minimum
// here and returns nil too. A draw that cannot be tabled leaves cells nil
// and is only snapped: a non-finite range, more cells than the pool has
// nodes (the table is sized by the pool, never by the knob), and — found
// on the way — a level out of range or a NaN power. A table's class
// column is classOf (empty) grown to the pool.
func (s Spec) quantizer(powers []float64, lo, hi float64, links []float64, classOf []int32) *quantizer {
	if s.PowerLevels < 1 || lo == hi {
		return nil
	}
	if s.PowerLevels == 1 {
		for i := range powers {
			powers[i] = lo
		}
		return nil
	}
	q := &quantizer{lo: lo, step: (hi - lo) / float64(s.PowerLevels-1)}
	if links == nil {
		links = []float64{0} // one class, on the default link
	}
	if !(q.step > 0 && q.step <= math.MaxFloat64) || s.PowerLevels > len(powers)/len(links) {
		return q
	}
	q.links, q.canon = links, make([]int, len(links))
	for k := range q.canon {
		for q.canon[k] < k && math.Float64bits(links[q.canon[k]]) != math.Float64bits(links[k]) {
			q.canon[k]++
		}
	}
	q.levels = s.PowerLevels
	q.cells = make([]cell, s.PowerLevels*len(links))
	q.classOf = slices.Grow(classOf, len(powers))[:len(powers)]
	return q
}

// quantizer is one power column's snap and, while cells is not nil, its
// class table.
type quantizer struct {
	lo, step float64
	levels   int
	links    []float64 // each link class's raw override
	canon    []int     // each link class's first class with the same link bits
	// cells holds, at link class·levels + level, that level behind that
	// link.
	cells   []cell
	classes []platform.SpecClass
	classOf []int32
}

// cell is one level behind one link class in a quantizer's table.
type cell struct {
	// class is the cell's class (+1; 0 = not met yet), members the number
	// of nodes snapped into the cell.
	class, members int32
	// power is the level's power, lo + level·step, once the cell is met.
	power float64
}

// snap snaps the column and classes each node while the table holds: one
// pass over the pool, cluster by cluster or tier by tier (snapRuns), that
// counts each cell's members and adds them to the classes once at the
// end. It leaves that pass only at a node whose cell is met for the first
// time, which opens or joins its class (class), and at the table's end —
// a NaN power, a level past the table — from which node on every power is
// snapped by math.Round, to the power the table would have snapped it to.
func (q *quantizer) snap(powers []float64, lay *linkLayout) {
	n, top := len(powers), float64(q.levels)-0.5
	start, k, i := 0, 0, 0
	for q.cells != nil {
		if start, k, i = q.snapRuns(powers, lay, start, k, i); i == n {
			for _, c := range q.cells {
				if c.class != 0 {
					q.classes[c.class-1].Count += c.members
				}
			}
			return
		}
		y := (powers[i] - q.lo) / q.step
		if !inTable(y, top) {
			q.cells = nil
		} else if r := round(y); q.class(r, k, q.lo+float64(r)*q.step) == 0 {
			q.cells = nil
		}
	}
	for ; i < n; i++ {
		powers[i] = q.lo + math.Round((powers[i]-q.lo)/q.step)*q.step
	}
}

// snapRuns snaps and classes the column from node i on — in link class k
// of the period that opens at node start; lay's runs are contiguous, so i
// runs on from one into the next — and returns where it stopped: at the
// first node that is no member of a cell already met, or at the end of
// the column (i = n). A node's level is round's, when inTable has it.
// The loop makes no call, which keeps its state in registers: a first
// meeting is snap's to handle.
//
//adeptvet:hotpath
func (q *quantizer) snapRuns(powers []float64, lay *linkLayout, start, k, i int) (int, int, int) {
	n, period, bounds := len(powers), lay.period, lay.bounds
	base, step, top := q.lo, q.step, float64(q.levels)-0.5
	for ; start < n; start, k = start+period, 0 {
		for ; k < len(bounds)-1; k++ {
			run := powers[:min(start+bounds[k+1], n)]
			of, row := q.classOf[:len(run)], q.cells[k*q.levels:][:q.levels]
			for ; i < len(run); i++ {
				y := (run[i] - base) / step
				if !inTable(y, top) {
					return start, k, i
				}
				t := round(y)
				c := &row[t]
				if c.class == 0 {
					return start, k, i
				}
				run[i] = c.power
				of[i] = c.class - 1
				c.members++
			}
		}
	}
	return start, k, i
}

// inTable reports whether y = (w−lo)/step snaps to a level of the table,
// top being levels − ½: whether 0 ≤ math.Round(y) < levels. A NaN,
// negative or out-of-range y does not.
func inTable(y, top float64) bool {
	return y >= 0 && y < top
}

// round returns math.Round(y) for 0 ≤ y < 2⁵³ by integer truncation,
// which costs a fraction of math.Round's bit manipulation: the fraction
// f = y − ⌊y⌋ is exact (Sterbenz), and so is 2f, whose integer part is 1
// just when f ≥ ½ — adding it rounds half away from zero, as math.Round
// does, with no branch on the fraction for the draw to mispredict.
func round(y float64) int {
	t := int(y)
	return t + int(2*(y-float64(t)))
}

// class returns the class (+1) of the first node met at level r behind
// link class k, its power snapped to w, and enters it and w in that cell:
// the class of the canonical cell — the first level whose power has w's
// bits, behind the first link class whose link has k's — which it opens
// when it is new. The snapped powers never fall as the level rises, so
// the levels of one power are a range and a binary search finds its
// first. It returns 0 if that level's power is w only as a float, not in
// bits (−0 against +0): no table then.
func (q *quantizer) class(r, k int, w float64) int32 {
	j := sort.Search(r, func(j int) bool { return q.lo+float64(j)*q.step >= w })
	if math.Float64bits(q.lo+float64(j)*q.step) != math.Float64bits(w) {
		return 0
	}
	c := &q.cells[q.canon[k]*q.levels+j]
	if c.class == 0 {
		q.classes = append(q.classes, platform.SpecClass{Power: w, LinkBandwidth: q.links[k]})
		c.class, c.power = int32(len(q.classes)), w
	}
	met := &q.cells[k*q.levels+r]
	met.class, met.power = c.class, w
	return c.class
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
