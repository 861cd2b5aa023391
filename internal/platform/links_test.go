package platform_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"adept/internal/platform"
)

// TestValidateHeterogeneousLinks is the table-driven malformed-spec sweep
// for per-node link bandwidths.
func TestValidateHeterogeneousLinks(t *testing.T) {
	base := func() *platform.Platform {
		return &platform.Platform{
			Name:      "t",
			Bandwidth: 100,
			Nodes: []platform.Node{
				{Name: "a", Power: 400},
				{Name: "b", Power: 300, LinkBandwidth: 10},
			},
		}
	}
	cases := []struct {
		name    string
		mutate  func(p *platform.Platform)
		wantErr string // "" = must validate
	}{
		{"valid heterogeneous", func(p *platform.Platform) {}, ""},
		{"zero link inherits default", func(p *platform.Platform) { p.Nodes[1].LinkBandwidth = 0 }, ""},
		{"explicit default link", func(p *platform.Platform) { p.Nodes[1].LinkBandwidth = 100 }, ""},
		{"negative link bandwidth", func(p *platform.Platform) { p.Nodes[0].LinkBandwidth = -5 }, "invalid link bandwidth"},
		{"NaN link bandwidth", func(p *platform.Platform) { p.Nodes[0].LinkBandwidth = math.NaN() }, "invalid link bandwidth"},
		{"Inf link bandwidth", func(p *platform.Platform) { p.Nodes[1].LinkBandwidth = math.Inf(1) }, "invalid link bandwidth"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := base()
			tc.mutate(p)
			err := p.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("want error containing %q, got %v", tc.wantErr, err)
			}
		})
	}
}

// TestLinkJSONRoundTrip: pre-heterogeneous descriptions (no link field)
// round-trip byte-identically, and per-node links survive a round trip.
func TestLinkJSONRoundTrip(t *testing.T) {
	uniform := &platform.Platform{
		Name: "u", Bandwidth: 100,
		Nodes: []platform.Node{{Name: "a", Power: 400}, {Name: "b", Power: 300}},
	}
	data, err := uniform.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte("link_bandwidth")) {
		t.Errorf("uniform platform JSON leaks the link field:\n%s", data)
	}
	back, err := platform.ParseJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	data2, err := back.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("uniform platform JSON not byte-stable across a round trip")
	}

	het := uniform.Clone()
	het.Nodes[1].LinkBandwidth = 12.5
	hdata, err := het.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	hback, err := platform.ParseJSON(hdata)
	if err != nil {
		t.Fatal(err)
	}
	if hback.Nodes[1].LinkBandwidth != 12.5 || hback.Nodes[0].LinkBandwidth != 0 {
		t.Errorf("links lost in round trip: %+v", hback.Nodes)
	}
	if hback.Nodes[0].Link(hback.Bandwidth) != 100 || hback.Nodes[1].Link(hback.Bandwidth) != 12.5 {
		t.Errorf("Link resolution wrong: %g, %g",
			hback.Nodes[0].Link(hback.Bandwidth), hback.Nodes[1].Link(hback.Bandwidth))
	}
}
