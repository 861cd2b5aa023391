package hierarchy_test

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"testing"
	"unicode/utf8"

	"adept/internal/core"
	"adept/internal/hierarchy"
	"adept/internal/model"
	"adept/internal/scenario"
	"adept/internal/workload"
)

// The reflective encoding/xml writer WriteXML replaced, kept as its
// oracle: the deployment document it encodes with Indent("", "  "),
// between xml.Header and a final newline.

type oracleElement struct {
	XMLName   xml.Name
	Name      string          `xml:"name,attr"`
	Power     float64         `xml:"power,attr"`
	Bandwidth float64         `xml:"bandwidth,attr,omitempty"`
	Children  []oracleElement `xml:",any"`
}

type oracleDeployment struct {
	XMLName xml.Name      `xml:"deployment"`
	Name    string        `xml:"name,attr"`
	Root    oracleElement `xml:"agent"`
}

func oracleTree(h *hierarchy.Hierarchy, id int) oracleElement {
	n := h.MustNode(id)
	tag := "agent"
	if n.Role == hierarchy.RoleServer {
		tag = "server"
	}
	el := oracleElement{XMLName: xml.Name{Local: tag}, Name: n.Name, Power: n.Power, Bandwidth: n.Bandwidth}
	for _, c := range n.Children {
		el.Children = append(el.Children, oracleTree(h, c))
	}
	return el
}

func oracleWriteXML(w io.Writer, h *hierarchy.Hierarchy) error {
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(oracleDeployment{Name: h.Name, Root: oracleTree(h, h.Root())}); err != nil {
		return err
	}
	if err := enc.Close(); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// sameXML fails unless WriteXML and MarshalXMLString both write exactly
// the oracle's bytes for h, and returns them.
func sameXML(t *testing.T, h *hierarchy.Hierarchy) string {
	t.Helper()
	var want strings.Builder
	if err := oracleWriteXML(&want, h); err != nil {
		t.Fatalf("oracle: %v", err)
	}
	var got strings.Builder
	if err := h.WriteXML(&got); err != nil {
		t.Fatalf("WriteXML: %v", err)
	}
	if got.String() != want.String() {
		t.Fatalf("WriteXML differs from encoding/xml:\ngot:\n%s\nwant:\n%s", got.String(), want.String())
	}
	s, err := h.MarshalXMLString()
	if err != nil || s != want.String() {
		t.Fatalf("MarshalXMLString differs from WriteXML (err %v)", err)
	}
	return s
}

// roundTrip fails unless the document parses back into a hierarchy that
// writes the same bytes.
func roundTrip(t *testing.T, doc string) {
	t.Helper()
	back, err := hierarchy.ParseXML(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("ParseXML: %v\n%s", err, doc)
	}
	again, err := back.MarshalXMLString()
	if err != nil {
		t.Fatal(err)
	}
	if again != doc {
		t.Fatalf("ParseXML round trip rewrote the document:\ngot:\n%s\nwant:\n%s", again, doc)
	}
}

// TestWriteXMLMatchesEncodingXML holds the direct writer to encoding/xml
// over the heuristic's plans of the scenario corpus — every family, links
// homogeneous and heterogeneous — and checks each document parses back.
func TestWriteXMLMatchesEncodingXML(t *testing.T) {
	planner := core.NewHeuristic()
	for _, spec := range scenario.Corpus(11, 4, 40, 400) {
		cols, err := spec.Columns(t.Context(), nil)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := planner.PlanContext(t.Context(), core.Request{
			Columns: cols, Costs: model.DIETDefaults(), Wapp: workload.DGEMM{N: 310}.MFlop(),
		})
		if err != nil {
			t.Fatalf("%s: %v", cols.Name, err)
		}
		roundTrip(t, sameXML(t, plan.Hierarchy))
	}
}

// hostileNames are strings every escape rule of xml.EscapeText touches:
// markup characters, the whitespace escaped as character references,
// invalid UTF-8, a literal U+FFFD, and runes outside XML's character range.
var hostileNames = []string{
	`q"uote`, "apos'", "amp&amp", "<lt", "gt>", "tab\there", "new\nline", "cr\rlf",
	"bad\xffutf8", "\xc3", "lit\uFFFDeral", "nonchar\uFFFE", "ctl\x01", "nul\x00",
	"surrogate\xed\xa0\x80", "astral\U0001F600", "plain-node", "é",
}

func TestWriteXMLEscapesLikeEncodingXML(t *testing.T) {
	for i, name := range hostileNames {
		h := hierarchy.New("dep " + name)
		root, err := h.AddRoot("root"+name, 1e6, 1000)
		if err != nil {
			t.Fatal(err)
		}
		agent, err := h.AddAgent(root, name, 0.1+float64(i), 0)
		if err != nil {
			t.Fatal(err)
		}
		for j, bw := range []float64{0, 12.5, 1e21} {
			if _, err := h.AddServer(agent, fmt.Sprintf("%s/%d", name, j), 3e-7, bw); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := h.AddServer(root, "s"+name, 450); err != nil {
			t.Fatal(err)
		}
		doc := sameXML(t, h)
		if validName(name) {
			roundTrip(t, doc)
		}
	}
}

func TestWriteXMLEmptyHierarchy(t *testing.T) {
	if _, err := hierarchy.New("empty").MarshalXMLString(); err == nil {
		t.Error("empty hierarchy serialised")
	}
}

// validName reports whether s reads back from XML as itself: valid UTF-8
// of runes in XML's character range, U+FFFD included.
func validName(s string) bool {
	for i, r := range s {
		if r == utf8.RuneError {
			if _, w := utf8.DecodeRuneInString(s[i:]); w == 1 {
				return false
			}
		}
		if !(r == 0x09 || r == 0x0A || r == 0x0D || r >= 0x20 && r <= 0xD7FF ||
			r >= 0xE000 && r <= 0xFFFD || r >= 0x10000 && r <= 0x10FFFF) {
			return false
		}
	}
	return true
}

// FuzzWriteXML holds WriteXML to the encoding/xml oracle byte for byte on
// fuzzed names, powers and bandwidths, over a shape the fuzzer picks; a
// document whose names all read back as themselves must round-trip through
// ParseXML.
func FuzzWriteXML(f *testing.F) {
	for i, name := range hostileNames {
		f.Add("dep", name, name+"x", 400.0, 0.0, uint8(i))
	}
	f.Add("", "a", "b", 1e300, 1e-300, uint8(255))
	f.Fuzz(func(t *testing.T, dep, a, b string, power, bw float64, shape uint8) {
		h := hierarchy.New(dep)
		root, err := h.AddRoot(a, power)
		if err != nil {
			return
		}
		names := []string{a}
		parent := root
		for k := 0; k < 4; k++ {
			name := fmt.Sprintf("%s%d%s", b, k, a)
			names = append(names, name)
			link := 0.0
			if shape&(1<<(4+k)) != 0 {
				link = bw
			}
			var id int
			if shape&(1<<k) != 0 {
				id, err = h.AddAgent(parent, name, power*float64(k+1), link)
			} else {
				_, err = h.AddServer(parent, name, power/float64(k+1), link)
			}
			if err != nil {
				return
			}
			if shape&(1<<k) != 0 {
				parent = id
			}
		}
		doc := sameXML(t, h)
		if !validName(dep) {
			return
		}
		for _, n := range names {
			if !validName(n) {
				return
			}
		}
		// Agents with no children and duplicate names fail ParseXML's
		// structural check on both writers alike; only a document that
		// parses must round-trip.
		if _, err := hierarchy.ParseXML(strings.NewReader(doc)); err != nil {
			return
		}
		roundTrip(t, doc)
	})
}
