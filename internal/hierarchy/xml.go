package hierarchy

import (
	"encoding/xml"
	"fmt"
	"io"
	"os"
	"strconv"
	"unicode/utf8"
)

// xmlElement is the on-disk recursive form of a deployment element, in the
// spirit of the GoDIET input format the paper's write_xml step produces.
// ParseXML decodes into it; WriteXML writes the same form directly.
type xmlElement struct {
	XMLName xml.Name
	Name    string  `xml:"name,attr"`
	Power   float64 `xml:"power,attr"`
	// Bandwidth is the optional per-node link bandwidth; omitted (zero)
	// for nodes on the platform-default link, so homogeneous deployments
	// serialise byte-identically to the pre-heterogeneous format.
	Bandwidth float64      `xml:"bandwidth,attr,omitempty"`
	Children  []xmlElement `xml:",any"`
}

// xmlDeployment is the document root.
type xmlDeployment struct {
	XMLName xml.Name   `xml:"deployment"`
	Name    string     `xml:"name,attr"`
	Root    xmlElement `xml:"agent"`
}

const (
	xmlAgentTag  = "agent"
	xmlServerTag = "server"
)

// WriteXML emits the GoDIET-style deployment XML to w. This is the
// heuristic's write_xml step: the artifact handed to the deployment tool.
func (h *Hierarchy) WriteXML(w io.Writer) error {
	b, err := h.AppendXML(nil)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// MarshalXMLString returns the deployment XML as a string.
func (h *Hierarchy) MarshalXMLString() (string, error) {
	b, err := h.AppendXML(nil)
	return string(b), err
}

// AppendXML appends the deployment XML to b and returns the extended
// buffer: the document encoding/xml writes for xmlDeployment under
// Indent("", "  "), between xml.Header and a final newline, byte for byte
// — attribute values escaped as xml.EscapeText escapes them, powers
// formatted as strconv's shortest 'g', a zero bandwidth omitted, and every
// element closed by an end tag. A caller that renders deployment after
// deployment appends each into the last one's buffer, emptied, and copies
// out what it keeps: the buffer then stops growing.
func (h *Hierarchy) AppendXML(b []byte) ([]byte, error) {
	if h.root == -1 {
		return b, fmt.Errorf("hierarchy: cannot serialise empty hierarchy")
	}
	b = append(b, xml.Header...)
	b = append(b, `<deployment name="`...)
	b = appendEscaped(b, h.Name)
	b = append(b, `">`...)
	b = h.appendElement(b, h.root, 1)
	return append(b, "\n</deployment>\n"...), nil
}

// appendElement appends node id's element, its subtree nested inside it,
// on a new line at depth levels of indentation.
func (h *Hierarchy) appendElement(b []byte, id, depth int) []byte {
	n := &h.nodes[id]
	tag := xmlAgentTag
	if n.Role == RoleServer {
		tag = xmlServerTag
	}
	b = appendIndent(b, depth)
	b = append(b, '<')
	b = append(b, tag...)
	b = append(b, ` name="`...)
	b = appendEscaped(b, n.Name)
	b = append(b, `" power="`...)
	b = strconv.AppendFloat(b, n.Power, 'g', -1, 64)
	if n.Bandwidth != 0 {
		b = append(b, `" bandwidth="`...)
		b = strconv.AppendFloat(b, n.Bandwidth, 'g', -1, 64)
	}
	b = append(b, `">`...)
	for _, c := range n.Children {
		b = h.appendElement(b, c, depth+1)
	}
	if len(n.Children) > 0 {
		b = appendIndent(b, depth)
	}
	b = append(b, "</"...)
	b = append(b, tag...)
	return append(b, '>')
}

// appendIndent starts a new line indented depth levels.
func appendIndent(b []byte, depth int) []byte {
	b = append(b, '\n')
	for range depth {
		b = append(b, "  "...)
	}
	return b
}

// appendEscaped appends s escaped as xml.EscapeText escapes it: the five
// markup characters and tab, newline and carriage return as character
// references, and every byte that is not valid UTF-8 or every rune outside
// XML's character range as U+FFFD.
func appendEscaped(b []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		r, width := utf8.DecodeRuneInString(s[i:])
		var esc string
		switch r {
		case '"':
			esc = "&#34;"
		case '\'':
			esc = "&#39;"
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '\t':
			esc = "&#x9;"
		case '\n':
			esc = "&#xA;"
		case '\r':
			esc = "&#xD;"
		default:
			if inCharacterRange(r) && (r != utf8.RuneError || width > 1) {
				i += width
				continue
			}
			esc = "\uFFFD"
		}
		b = append(b, s[last:i]...)
		b = append(b, esc...)
		i += width
		last = i
	}
	return append(b, s[last:]...)
}

// inCharacterRange reports whether r is in XML 1.0's Char production.
func inCharacterRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// SaveXML writes the deployment XML to a file.
func (h *Hierarchy) SaveXML(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("hierarchy: %w", err)
	}
	defer f.Close()
	if err := h.WriteXML(f); err != nil {
		return err
	}
	return f.Close()
}

// ParseXML reads a deployment back from its XML form, reconstructing the
// hierarchy (the input side of the GoDIET hand-off).
func ParseXML(r io.Reader) (*Hierarchy, error) {
	var doc xmlDeployment
	dec := xml.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("hierarchy: decode XML: %w", err)
	}
	h := New(doc.Name)
	rootID, err := h.AddRoot(doc.Root.Name, doc.Root.Power, doc.Root.Bandwidth)
	if err != nil {
		return nil, err
	}
	var rec func(parent int, el xmlElement) error
	rec = func(parent int, el xmlElement) error {
		for _, child := range el.Children {
			switch child.XMLName.Local {
			case xmlAgentTag:
				id, err := h.AddAgent(parent, child.Name, child.Power, child.Bandwidth)
				if err != nil {
					return err
				}
				if err := rec(id, child); err != nil {
					return err
				}
			case xmlServerTag:
				if len(child.Children) != 0 {
					return fmt.Errorf("hierarchy: server %q has child elements", child.Name)
				}
				if _, err := h.AddServer(parent, child.Name, child.Power, child.Bandwidth); err != nil {
					return err
				}
			default:
				return fmt.Errorf("hierarchy: unknown element <%s>", child.XMLName.Local)
			}
		}
		return nil
	}
	if err := rec(rootID, doc.Root); err != nil {
		return nil, err
	}
	if err := h.Validate(Structural); err != nil {
		return nil, err
	}
	return h, nil
}

// LoadXML reads a deployment XML file.
func LoadXML(path string) (*Hierarchy, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("hierarchy: %w", err)
	}
	defer f.Close()
	return ParseXML(f)
}

// WriteDOT renders the hierarchy in Graphviz DOT format for visual
// inspection of planned deployments.
func (h *Hierarchy) WriteDOT(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "digraph %q {\n  rankdir=TB;\n", h.Name); err != nil {
		return err
	}
	var werr error
	h.Walk(func(n Node) {
		if werr != nil {
			return
		}
		shape := "box"
		if n.Role == RoleServer {
			shape = "ellipse"
		}
		_, werr = fmt.Fprintf(w, "  n%d [label=\"%s\\n%.0f MFlop/s\", shape=%s];\n", n.ID, n.Name, n.Power, shape)
		if werr != nil {
			return
		}
		for _, c := range n.Children {
			if _, werr = fmt.Fprintf(w, "  n%d -> n%d;\n", n.ID, c); werr != nil {
				return
			}
		}
	})
	if werr != nil {
		return werr
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
