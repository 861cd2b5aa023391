package platform_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"adept/internal/platform"
)

// maxPool is the largest pool the planning service generates (its scenario
// cap): the naming properties below are checked over every index under it.
const maxPool = 2_097_152

// namesOnly returns columns of n nodes called "<name>-%04d": the naming
// methods read nothing of a pool but its name and its size, so every such
// pool shares one (never written, never read) power column.
func namesOnly(name string, n int) *platform.Columns {
	return &platform.Columns{Name: name, Bandwidth: 100, Powers: noPowers[:n]}
}

var noPowers = make([]float64, maxPool)

// TestColumnsNamesAreInjective is the proof that stands where the
// uniqueness walk of Platform.Validate stood: over every index of the
// largest pool, NodeName is what fmt's "%s-%04d" gives and Lookup takes it
// back to the index it came from — so no two nodes share a name.
func TestColumnsNamesAreInjective(t *testing.T) {
	c := namesOnly("pool", maxPool)
	for i := 0; i < maxPool; i++ {
		name := c.NodeName(i)
		if i%257 == 0 || i < 20_000 {
			if want := fmt.Sprintf("%s-%04d", "pool", i); name != want {
				t.Fatalf("NodeName(%d) = %q, want %q", i, name, want)
			}
		}
		if got, ok := c.Lookup(name); !ok || got != i {
			t.Fatalf("Lookup(NodeName(%d) = %q) = %d, %v", i, name, got, ok)
		}
	}
}

// TestColumnsLookupRefusals: Lookup accepts one spelling per node and
// nothing else, whatever the platform is called.
func TestColumnsLookupRefusals(t *testing.T) {
	c := namesOnly("pool", 5000)
	for _, name := range []string{
		"pool-10", "pool-00010", "pool-+010", "pool-0010x", "other-0010",
		"pool-5000", "pool-99999999999999999999999", "pool0010", "pool-", "pool", "", "-0010", "pool--010", "pool- 010",
	} {
		if i, ok := c.Lookup(name); ok {
			t.Errorf("Lookup(%q) = %d, want a refusal", name, i)
		}
	}
	if i, ok := c.Lookup("pool-0010"); !ok || i != 10 {
		t.Errorf("Lookup(pool-0010) = %d, %v", i, ok)
	}
	if i, ok := c.Lookup("pool-4999"); !ok || i != 4999 {
		t.Errorf("Lookup(pool-4999) = %d, %v", i, ok)
	}

	// The prefix is the whole platform name, not the text before the first
	// dash: a name that itself ends like a node name round-trips.
	dashed := namesOnly("rack-7-0001", 20_000)
	for _, i := range []int{0, 1, 9999, 10_000, 19_999} {
		if got, ok := dashed.Lookup(dashed.NodeName(i)); !ok || got != i {
			t.Errorf("under %q: Lookup(%q) = %d, %v", dashed.Name, dashed.NodeName(i), got, ok)
		}
	}
	if i, ok := dashed.Lookup("rack-7-0001"); ok {
		t.Errorf("the platform's own name resolved to node %d", i)
	}
	if i, ok := namesOnly("rack-7", 20_000).Lookup("rack-7-0001-0003"); ok {
		t.Errorf("a node of %q resolved in %q as node %d", dashed.Name, "rack-7", i)
	}
}

// TestColumnsNameLessIsStringOrder holds the integer name-order key to the
// order of the strings it stands for: exhaustively across each width edge
// (where index order and name order part ways), on seeded random pairs
// elsewhere, and as a whole-pool sort against sort.Strings.
func TestColumnsNameLessIsStringOrder(t *testing.T) {
	c := namesOnly("pool", maxPool)
	check := func(i, j int) {
		t.Helper()
		if got, want := c.NameLess(i, j), c.NodeName(i) < c.NodeName(j); got != want {
			t.Fatalf("NameLess(%d, %d) = %v, but %q < %q is %v", i, j, got, c.NodeName(i), c.NodeName(j), want)
		}
	}
	var edges []int
	for _, e := range []int{0, 1000, 10_000, 100_000, 1_000_000, maxPool - 30} {
		for d := -30; d < 30; d++ {
			if i := e + d; i >= 0 && i < maxPool {
				edges = append(edges, i)
			}
		}
	}
	// Prefix pairs: one name's digits extend the other's with zeros.
	edges = append(edges, 100, 1001, 10_010, 100_100, 1_001_000, 2000, 20_000, 200_000, 2_000_000)
	for _, i := range edges {
		for _, j := range edges {
			check(i, j)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < 200_000; k++ {
		check(rng.Intn(maxPool), rng.Intn(maxPool))
	}

	for _, n := range []int{9999, 10_001, 123_456} {
		idx := make([]int, n)
		names := make([]string, n)
		for i := range idx {
			idx[i], names[i] = i, c.NodeName(i)
		}
		sort.Slice(idx, func(a, b int) bool { return c.NameLess(idx[a], idx[b]) })
		sort.Strings(names)
		for k, i := range idx {
			if c.NodeName(i) != names[k] {
				t.Fatalf("n=%d: position %d of the key order is %q, sort.Strings has %q", n, k, c.NodeName(i), names[k])
			}
		}
	}
}

// TestColumnsNameRuns: NameRuns cuts an ascending index list into runs that
// are each in name order, at most one run per digit width (four to seven
// in a pool of maxPool). Seeded subsets of the pool straddle each width
// edge, skip whole widths, and sit inside one; own names have no runs.
func TestColumnsNameRuns(t *testing.T) {
	c := namesOnly("pool", maxPool)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		lo := rng.Intn(maxPool)
		hi := lo + rng.Intn(maxPool-lo) + 1
		var idx []int32
		for i := lo; i < hi && len(idx) < 2000; i += 1 + rng.Intn(1+(hi-lo)/500) {
			idx = append(idx, int32(i))
		}
		if trial%3 == 0 { // one index from each end of the pool: skips widths
			idx = []int32{int32(rng.Intn(1000)), int32(maxPool - 1 - rng.Intn(1000))}
		}
		cuts := c.NameRuns(idx)
		if len(cuts) == 0 || len(cuts) > 4 || cuts[0] != 0 {
			t.Fatalf("%v: cuts %v", idx, cuts)
		}
		for k := 1; k < len(cuts); k++ {
			if cuts[k] <= cuts[k-1] || cuts[k] >= len(idx) {
				t.Fatalf("%v: cuts %v do not rise inside it", idx, cuts)
			}
		}
		for k := 1; k < len(idx); k++ {
			if !slices.Contains(cuts, k) && !c.NameLess(int(idx[k-1]), int(idx[k])) {
				t.Fatalf("indices %d, %d at %d: one run (cuts %v), out of name order", idx[k-1], idx[k], k, cuts)
			}
		}
	}
	own, err := (&platform.Platform{Name: "own", Bandwidth: 1, Nodes: []platform.Node{{Name: "b", Power: 1}, {Name: "a", Power: 1}}}).Columns()
	if err != nil {
		t.Fatal(err)
	}
	if cuts := own.NameRuns([]int32{0, 1}); cuts != nil {
		t.Errorf("own names: cuts %v, want none", cuts)
	}
}

// TestColumnsPlatformAndValidate: the expansion is the platform the columns
// describe, a valid one; and Validate refuses what Platform.Validate
// refuses, in the same words.
func TestColumnsPlatformAndValidate(t *testing.T) {
	c := &platform.Columns{Name: "pool", Bandwidth: 100, Powers: []float64{400, 200, 300}, Links: []float64{0, 10, 1000}}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	p := c.Platform()
	want := &platform.Platform{Name: "pool", Bandwidth: 100, Nodes: []platform.Node{
		{Name: "pool-0000", Power: 400},
		{Name: "pool-0001", Power: 200, LinkBandwidth: 10},
		{Name: "pool-0002", Power: 300, LinkBandwidth: 1000},
	}}
	if !reflect.DeepEqual(p, want) {
		t.Errorf("Platform() = %+v, want %+v", p, want)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("expansion of valid columns is invalid: %v", err)
	}
	for i := range p.Nodes {
		if got := c.Node(i); got != p.Nodes[i] {
			t.Errorf("Node(%d) = %+v, the expansion has %+v", i, got, p.Nodes[i])
		}
	}
	cmin, cmax := c.LinkRange()
	if pmin, pmax := p.LinkRange(); cmin != pmin || cmax != pmax {
		t.Errorf("LinkRange() = (%g, %g), the expansion's is (%g, %g)", cmin, cmax, pmin, pmax)
	}
	uniform := &platform.Columns{Name: "u", Bandwidth: 42, Powers: []float64{1, 2}}
	if lo, hi := uniform.LinkRange(); lo != 42 || hi != 42 {
		t.Errorf("LinkRange() without overrides = (%g, %g), want (42, 42)", lo, hi)
	}
	if n := uniform.Platform().Nodes[1]; n.LinkBandwidth != 0 {
		t.Errorf("a pool without overrides expanded to link %g", n.LinkBandwidth)
	}

	for name, mutate := range map[string]func(*platform.Columns){
		"zero bandwidth":     func(c *platform.Columns) { c.Bandwidth = 0 },
		"NaN bandwidth":      func(c *platform.Columns) { c.Bandwidth = math.NaN() },
		"infinite bandwidth": func(c *platform.Columns) { c.Bandwidth = math.Inf(1) },
		"no nodes":           func(c *platform.Columns) { c.Powers, c.Links = nil, nil },
		"short link column":  func(c *platform.Columns) { c.Links = c.Links[:2] },
		"negative power":     func(c *platform.Columns) { c.Powers[1] = -5 },
		"zero power":         func(c *platform.Columns) { c.Powers[2] = 0 },
		"NaN power":          func(c *platform.Columns) { c.Powers[0] = math.NaN() },
		"infinite power":     func(c *platform.Columns) { c.Powers[0] = math.Inf(1) },
		"negative link":      func(c *platform.Columns) { c.Links[1] = -1 },
		"NaN link":           func(c *platform.Columns) { c.Links[1] = math.NaN() },
		"infinite link":      func(c *platform.Columns) { c.Links[2] = math.Inf(1) },
	} {
		bad := &platform.Columns{Name: "pool", Bandwidth: 100, Powers: []float64{400, 200, 300}, Links: []float64{0, 10, 1000}}
		mutate(bad)
		err := bad.Validate()
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if name == "short link column" {
			continue // a platform cannot be built that way
		}
		if perr := bad.Platform().Validate(); perr == nil || perr.Error() != err.Error() {
			t.Errorf("%s: columns say %q, their expansion says %v", name, err, perr)
		}
	}
}

// FuzzColumnsLookup: whatever the platform is called and whatever string
// arrives, Lookup answers a node exactly when that node's name is the
// string. Over generated names the oracle reads the text after the prefix
// leniently (sign, padding and all) and asks NodeName. Over a platform's
// own names — list, split at commas — it is a map: Platform.Columns accepts
// the list exactly when the map finds no empty and no repeated name, refuses
// it at the first failure in index order with Platform.Validate's words,
// and the columns it returns take every name back to its index, refuse the
// string when it is no node's name, and order names as strings do.
func FuzzColumnsLookup(f *testing.F) {
	for _, name := range []string{"pool-10", "pool-00010", "pool-+010", "pool-0010x", "other-0010", "pool-0010", "pool-9999", "pool-10000", "pool-2097151", "pool-2097152"} {
		f.Add("pool", name, uint32(maxPool), "a,b,pool-0010")
	}
	f.Add("rack-7-0001", "rack-7-0001-0003", uint32(5), "x,y,x")
	f.Add("", "-0000", uint32(1), "")
	f.Add("p", "b", uint32(3), "c,b,a,ab,a")
	f.Add("p", "", uint32(3), "c,,a")
	f.Fuzz(func(t *testing.T, prefix, name string, n uint32, list string) {
		c := namesOnly(prefix, int(n%(maxPool+1)))
		want, found := -1, false
		if rest, ok := strings.CutPrefix(name, prefix+"-"); ok {
			if i, err := strconv.Atoi(rest); err == nil && i >= 0 && i < c.Len() && c.NodeName(i) == name {
				want, found = i, true
			}
		}
		got, ok := c.Lookup(name)
		if ok != found || ok && got != want {
			t.Fatalf("Lookup(%q) in %q of %d nodes = %d, %v; want %d, %v", name, prefix, c.Len(), got, ok, want, found)
		}
		checkNamedLookup(t, prefix, name, strings.Split(list, ","))
	})
}

// checkNamedLookup is FuzzColumnsLookup over a platform's own node names.
func checkNamedLookup(t *testing.T, prefix, query string, names []string) {
	p := &platform.Platform{Name: prefix, Bandwidth: 100, Nodes: make([]platform.Node, len(names))}
	oracle := make(map[string]int, len(names))
	var refusal string
	for i, name := range names {
		p.Nodes[i] = platform.Node{Name: name, Power: float64(1 + i)}
		if refusal != "" {
			continue
		}
		if _, repeated := oracle[name]; name == "" {
			refusal = fmt.Sprintf("platform %q: node %d has empty name", prefix, i)
		} else if repeated {
			refusal = fmt.Sprintf("platform %q: duplicate node name %q", prefix, name)
		}
		oracle[name] = i
	}
	c, err := p.Columns()
	if refusal != "" {
		if err == nil || err.Error() != refusal {
			t.Fatalf("Columns of %q = %v, want %q", names, err, refusal)
		}
		return
	}
	if err != nil {
		t.Fatalf("Columns of %q: %v", names, err)
	}
	for i := range names {
		if got, ok := c.Lookup(c.NodeName(i)); !ok || got != i || c.NodeName(i) != names[i] {
			t.Fatalf("node %d of %q: NodeName %q, Lookup %d, %v", i, names, c.NodeName(i), got, ok)
		}
	}
	want, found := oracle[query]
	if got, ok := c.Lookup(query); ok != found || ok && got != want {
		t.Fatalf("Lookup(%q) in %q = %d, %v; want %d, %v", query, names, got, ok, want, found)
	}
	// Every pair on a short list; on a long one each name against its
	// successor and the first.
	for i := range names {
		js := []int{0, (i + 1) % len(names)}
		if len(names) <= 64 {
			js = js[:0]
			for j := range names {
				js = append(js, j)
			}
		}
		for _, j := range js {
			if got := c.NameLess(i, j); got != (names[i] < names[j]) {
				t.Fatalf("NameLess(%d, %d) = %v over %q, %q", i, j, got, names[i], names[j])
			}
		}
	}
}

// sink keeps the compiler from dropping a result whose allocation is
// counted.
var sink string

// TestNodeNameDoesNotPinTheNamesColumn: a name handed out for a deployment
// is a copy — one allocation — so a plan that outlives its columns (a
// cached plan of an overwritten platform) keeps a few names alive, not
// every name of the pool; the expansion, which lives with the columns,
// slices them and costs its node list alone.
func TestNodeNameDoesNotPinTheNamesColumn(t *testing.T) {
	p := &platform.Platform{Name: "own", Bandwidth: 1}
	for i := range 100 {
		p.Nodes = append(p.Nodes, platform.Node{Name: fmt.Sprintf("node-%03d", i), Power: 1})
	}
	c, err := p.Columns()
	if err != nil {
		t.Fatal(err)
	}
	if got := c.NodeName(57); got != "node-057" {
		t.Fatalf("NodeName(57) = %q", got)
	}
	if n := testing.AllocsPerRun(100, func() { sink = c.NodeName(57) }); n != 1 {
		t.Errorf("NodeName allocates %v times, want 1: its own copy", n)
	}
	if n := testing.AllocsPerRun(100, func() { sink = c.Platform().Nodes[99].Name }); n != 2 {
		t.Errorf("Platform allocates %v times, want 2: the platform and its node list", n)
	}
}
