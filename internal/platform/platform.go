// Package platform models the target execution platform of the paper:
// a pool of heterogeneous computing nodes (characterised by their computing
// power in MFlop/s) interconnected by homogeneous communication links of a
// single bandwidth B (Mbit/s).
//
// The paper evaluates on Grid'5000 clusters (Lyon, Orsay); this package
// replaces that physical substrate with platform descriptions that can be
// generated synthetically, loaded from JSON, or "heterogenised" from a
// homogeneous cluster exactly the way the paper does in §5.3 (launching
// background matrix-multiplication load on a subset of nodes and re-running
// the Linpack mini-benchmark).
package platform

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
)

// Node is a single computing resource.
type Node struct {
	// Name identifies the node, e.g. "orsay-042".
	Name string `json:"name"`
	// Power is the node's computing power in MFlop/s, as measured by the
	// Linpack mini-benchmark or assigned synthetically.
	Power float64 `json:"power"`
	// LinkBandwidth is the bandwidth in Mbit/s of the node's link into the
	// platform. Zero means "the platform-wide Bandwidth B" — the paper's
	// homogeneous-links model — so descriptions written before links became
	// per-node round-trip unchanged. A multi-cluster grid sets it per node:
	// fast intra-cluster links on the local site, the slow WAN uplink on
	// nodes reached across sites.
	LinkBandwidth float64 `json:"link_bandwidth_mbps,omitempty"`
}

// Link resolves the node's effective link bandwidth against the platform
// default def (the platform-wide B).
func (n Node) Link(def float64) float64 {
	if n.LinkBandwidth > 0 {
		return n.LinkBandwidth
	}
	return def
}

// Platform is a pool of candidate nodes plus the link bandwidth between
// them. The paper's communication model assumes homogeneous connectivity
// (a single cluster site); Bandwidth is that shared B, and it remains the
// default for every node whose LinkBandwidth is unset. Heterogeneous
// multi-cluster platforms override LinkBandwidth per node.
type Platform struct {
	// Name labels the platform in reports.
	Name string `json:"name"`
	// Bandwidth is the default link bandwidth B in Mbit/s: the bandwidth of
	// every link whose node does not carry an explicit LinkBandwidth.
	Bandwidth float64 `json:"bandwidth_mbps"`
	// Nodes is the pool of candidate middleware nodes. Client machines are
	// not part of the pool (the paper reserves separate nodes for clients).
	Nodes []Node `json:"nodes"`
}

// Validate checks platform well-formedness: a finite positive bandwidth, at
// least one node, finite positive powers, finite non-negative link
// overrides, and unique non-empty node names. It is the conversion into
// columns (Platform.Columns) with the columns thrown away.
func (p *Platform) Validate() error {
	_, err := p.Columns()
	return err
}

// digestDomain opens every platform digest, so that no other SHA-256 the
// repository computes over a description of a platform (a scenario spec's
// digest in particular) can equal one.
const digestDomain = "adept/platform/v1\x00"

// Digest is the platform's content address: the SHA-256 of an injective
// encoding of everything that names it — the platform name, the default
// bandwidth, the node count and, in pool order, every node's name, power
// and raw link bandwidth. Strings are length-prefixed and floats are their
// fixed-width IEEE-754 bits, so two platforms share a digest only if they
// are field-for-field equal: in particular the digest covers every field
// Validate reads, which is what lets the planning service skip validating
// a platform whose digest it has already validated and planned. It streams
// the encoding through one small buffer and allocates nothing per node.
func (p *Platform) Digest() [sha256.Size]byte {
	h := sha256.New()
	buf := make([]byte, 0, 2048)
	buf = append(buf, digestDomain...)
	buf = appendString(buf, p.Name)
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(p.Bandwidth))
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(p.Nodes)))
	for i := range p.Nodes {
		n := &p.Nodes[i]
		if len(buf)+8+len(n.Name)+16 > cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
		buf = appendString(buf, n.Name)
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(n.Power))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(n.LinkBandwidth))
	}
	h.Write(buf)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// appendString appends s behind its length, which keeps a sequence of
// strings injective whatever bytes they hold.
func appendString(buf []byte, s string) []byte {
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(s)))
	return append(buf, s...)
}

// LinkRange returns the minimum and maximum effective link bandwidth over
// the pool (zeros resolved against the platform default). An empty pool
// reports (Bandwidth, Bandwidth).
func (p *Platform) LinkRange() (min, max float64) {
	min, max = p.Bandwidth, p.Bandwidth
	for i, n := range p.Nodes {
		bw := n.Link(p.Bandwidth)
		if i == 0 {
			min, max = bw, bw
			continue
		}
		if bw < min {
			min = bw
		}
		if bw > max {
			max = bw
		}
	}
	return min, max
}

// HasUniformLinks reports whether every node's effective link bandwidth
// equals the platform default — the regime the paper's model (and the
// optimality proof behind baseline.OptimalDAry) assumes.
func (p *Platform) HasUniformLinks() bool {
	for _, n := range p.Nodes {
		if n.LinkBandwidth > 0 && n.LinkBandwidth != p.Bandwidth {
			return false
		}
	}
	return true
}

// Powers returns the slice of node powers, in node order.
func (p *Platform) Powers() []float64 {
	ws := make([]float64, len(p.Nodes))
	for i, n := range p.Nodes {
		ws[i] = n.Power
	}
	return ws
}

// DistinctSpecs counts the distinct (power, raw link bandwidth) node specs
// in the pool — the number of equivalence classes the planner's
// class-collapsed path would operate over. Equality is exact (float64 bit
// patterns), matching the collapse itself.
func DistinctSpecs(nodes []Node) int {
	type spec struct{ p, b uint64 }
	seen := make(map[spec]struct{}, 64)
	for _, n := range nodes {
		seen[spec{math.Float64bits(n.Power), math.Float64bits(n.LinkBandwidth)}] = struct{}{}
	}
	return len(seen)
}

// SortByPowerDesc returns a copy of the node slice sorted by decreasing
// power, breaking ties by name for determinism.
func (p *Platform) SortByPowerDesc() []Node {
	cp := append([]Node(nil), p.Nodes...)
	sort.Slice(cp, func(i, j int) bool {
		if cp[i].Power != cp[j].Power {
			return cp[i].Power > cp[j].Power
		}
		return cp[i].Name < cp[j].Name
	})
	return cp
}

// Clone returns a deep copy of the platform.
func (p *Platform) Clone() *Platform {
	cp := *p
	cp.Nodes = append([]Node(nil), p.Nodes...)
	return &cp
}

// String renders a short human-readable summary.
func (p *Platform) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "platform %q: %d nodes, B=%g Mb/s", p.Name, len(p.Nodes), p.Bandwidth)
	if lo, hi := p.LinkRange(); lo != hi || lo != p.Bandwidth {
		// Heterogeneous links: surface the spread (an inverted generation —
		// inter faster than intra — is accepted but shows up here).
		fmt.Fprintf(&b, ", links [%g, %g] Mb/s", lo, hi)
	}
	if len(p.Nodes) > 0 {
		ws := p.Powers()
		min, max := ws[0], ws[0]
		for _, w := range ws {
			if w < min {
				min = w
			}
			if w > max {
				max = w
			}
		}
		fmt.Fprintf(&b, ", power [%g, %g] MFlop/s", min, max)
	}
	return b.String()
}

// Homogeneous builds a platform of n identical nodes of the given power.
func Homogeneous(name string, n int, power, bandwidth float64) *Platform {
	p := &Platform{Name: name, Bandwidth: bandwidth}
	for i := 0; i < n; i++ {
		p.Nodes = append(p.Nodes, Node{Name: fmt.Sprintf("%s-%03d", name, i), Power: power})
	}
	return p
}

// GenSpec configures synthetic heterogeneous platform generation.
type GenSpec struct {
	Name      string
	N         int
	Bandwidth float64
	// MinPower and MaxPower bound the uniform power distribution (MFlop/s).
	MinPower float64
	MaxPower float64
	// Seed makes generation reproducible: every call with the same spec
	// draws from a fresh source seeded with this value, never from the
	// global math/rand source.
	Seed int64
	// Rand, when non-nil, supplies the random source directly and takes
	// precedence over Seed. Use it to thread one deterministic stream
	// through a whole scenario (several platforms, background loads, …).
	Rand *rand.Rand

	// Clusters, when at least 2, generates a multi-cluster grid instead of
	// a flat pool: nodes are assigned round-robin to K clusters and named
	// "<name>-c<k>-<i>". Cluster 0 is the local site — its nodes keep the
	// fast intra-cluster link — while every other cluster is reached over
	// the slow inter-cluster uplink. Zero or one keeps the flat
	// homogeneous-links generation (byte-identical to pre-cluster output).
	Clusters int
	// IntraBandwidth is the local-site link bandwidth in Mb/s (default:
	// Bandwidth). Only consulted when Clusters >= 2.
	IntraBandwidth float64
	// InterBandwidth is the link bandwidth of nodes reached across the WAN
	// (default: IntraBandwidth/10). An inversion (inter > intra) is
	// accepted — some grids really do have faster backbones than site LANs —
	// and shows up in the generated Platform's String(). Only consulted
	// when Clusters >= 2.
	InterBandwidth float64
}

// source returns the random stream to draw from: the explicit Rand when
// set, otherwise a fresh Seed-derived source (the compatible default —
// identical specs keep producing identical platforms).
func (spec GenSpec) source() *rand.Rand {
	if spec.Rand != nil {
		return spec.Rand
	}
	return rand.New(rand.NewSource(spec.Seed))
}

// Generate builds a synthetic heterogeneous platform with uniformly
// distributed node powers. It is the substitute for reserving Grid'5000
// nodes: the planner and models only consume (power, bandwidth) pairs.
// With Clusters >= 2 it builds a multi-cluster grid with heterogeneous
// links (see GenSpec.Clusters).
func Generate(spec GenSpec) (*Platform, error) {
	if spec.N <= 0 {
		return nil, errors.New("platform: GenSpec.N must be positive")
	}
	if spec.MinPower <= 0 || spec.MaxPower < spec.MinPower {
		return nil, fmt.Errorf("platform: invalid power range [%g, %g]", spec.MinPower, spec.MaxPower)
	}
	if spec.Bandwidth <= 0 {
		return nil, errors.New("platform: GenSpec.Bandwidth must be positive")
	}
	if spec.Clusters < 0 {
		return nil, fmt.Errorf("platform: GenSpec.Clusters must be non-negative, got %d", spec.Clusters)
	}
	if spec.Clusters > spec.N {
		return nil, fmt.Errorf("platform: cluster count %d exceeds node count %d", spec.Clusters, spec.N)
	}
	multi := spec.Clusters >= 2
	intra, inter := spec.IntraBandwidth, spec.InterBandwidth
	if multi {
		if intra == 0 {
			intra = spec.Bandwidth
		}
		if inter == 0 {
			inter = intra / 10
		}
		if intra <= 0 || inter <= 0 {
			return nil, fmt.Errorf("platform: invalid cluster bandwidths intra=%g inter=%g", intra, inter)
		}
	}
	rng := spec.source()
	p := &Platform{Name: spec.Name, Bandwidth: spec.Bandwidth}
	for i := 0; i < spec.N; i++ {
		w := spec.MinPower
		if spec.MaxPower > spec.MinPower {
			w = spec.MinPower + rng.Float64()*(spec.MaxPower-spec.MinPower)
		}
		n := Node{Name: fmt.Sprintf("%s-%03d", spec.Name, i), Power: w}
		if multi {
			k := i % spec.Clusters
			n.Name = fmt.Sprintf("%s-c%d-%03d", spec.Name, k, i)
			if k == 0 {
				n.LinkBandwidth = intra
			} else {
				n.LinkBandwidth = inter
			}
		}
		p.Nodes = append(p.Nodes, n)
	}
	return p, nil
}

// BackgroundLoad describes the §5.3 heterogenisation procedure: a fraction
// of the nodes runs a background matrix-multiplication program, reducing the
// power available to the middleware. LoadFactors gives the multiplicative
// power retention levels applied round-robin to the loaded nodes (e.g. 0.25
// means the background job steals 75 % of the node).
type BackgroundLoad struct {
	Fraction    float64
	LoadFactors []float64
	// Seed selects the loaded-node subset reproducibly.
	Seed int64
	// Rand, when non-nil, takes precedence over Seed (see GenSpec.Rand).
	Rand *rand.Rand
}

// Heterogenize returns a copy of p with background load applied to a random
// subset of nodes, reproducing the paper's method of converting the
// homogeneous Orsay cluster into a heterogeneous one. The returned platform
// has the same node names; only powers change.
func Heterogenize(p *Platform, bg BackgroundLoad) (*Platform, error) {
	if bg.Fraction < 0 || bg.Fraction > 1 {
		return nil, fmt.Errorf("platform: load fraction %g out of [0,1]", bg.Fraction)
	}
	if len(bg.LoadFactors) == 0 {
		return nil, errors.New("platform: no load factors")
	}
	for _, f := range bg.LoadFactors {
		if f <= 0 || f > 1 {
			return nil, fmt.Errorf("platform: load factor %g out of (0,1]", f)
		}
	}
	cp := p.Clone()
	rng := bg.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(bg.Seed))
	}
	perm := rng.Perm(len(cp.Nodes))
	loaded := int(bg.Fraction * float64(len(cp.Nodes)))
	for k := 0; k < loaded; k++ {
		idx := perm[k]
		factor := bg.LoadFactors[k%len(bg.LoadFactors)]
		cp.Nodes[idx].Power *= factor
	}
	return cp, nil
}

// LoadJSON reads a platform description from a JSON file.
func LoadJSON(path string) (*Platform, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	return ParseJSON(data)
}

// ParseJSON decodes a platform description from JSON bytes (DecodeJSON)
// and validates it.
func ParseJSON(data []byte) (*Platform, error) {
	p, err := DecodeJSON(data)
	if err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MarshalJSON renders the platform as indented JSON suitable for files.
func (p *Platform) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}

// SaveJSON writes the platform description to a JSON file.
func (p *Platform) SaveJSON(path string) error {
	data, err := p.MarshalIndent()
	if err != nil {
		return fmt.Errorf("platform: encode: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
