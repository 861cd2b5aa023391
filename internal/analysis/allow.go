package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// AllowPrefix is the suppression directive. A comment of the form
//
//	//adeptvet:allow <analyzer> <reason>
//
// suppresses findings of <analyzer> on the directive's own line or the
// line immediately below it. Placed in a function's doc comment, it
// suppresses findings of <analyzer> anywhere in that function. The reason
// is mandatory: suppressions are an audited part of the codebase, not an
// escape hatch (`adeptvet -allows` lists them all; directives that no
// longer suppress anything are reported as stale).
const AllowPrefix = "//adeptvet:allow "

// HotPathDirective marks a function as allocation-sensitive for the
// hotalloc analyzer when it appears in the function's doc comment.
const HotPathDirective = "//adeptvet:hotpath"

// StaleName is the pseudo-analyzer name under which malformed and stale
// allow directives are reported.
const StaleName = "allowaudit"

// An allow is one parsed //adeptvet:allow directive.
type allow struct {
	analyzer string
	reason   string
	pos      token.Pos
	file     string
	line     int
	// Function-doc directives scope to the whole declaration.
	scopeStart, scopeEnd token.Pos
	used                 bool
}

// An AllowRecord is the audit view of a directive.
type AllowRecord struct {
	Analyzer string
	Reason   string
	Pos      token.Position
}

// An allowSet holds every directive in a package, plus diagnostics for
// directives that could not be parsed.
type allowSet struct {
	fset      *token.FileSet
	allows    []*allow
	malformed []Diagnostic
}

// collectAllows parses every //adeptvet:allow directive in the files.
func collectAllows(fset *token.FileSet, files []*ast.File) *allowSet {
	s := &allowSet{fset: fset}
	for _, f := range files {
		// Directives inside a declaration's doc comment scope to the
		// whole declaration; remember each doc group's extent.
		type docScope struct{ start, end token.Pos }
		docs := make(map[*ast.CommentGroup]docScope)
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Doc != nil {
				docs[fn.Doc] = docScope{fn.Pos(), fn.End()}
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, strings.TrimRight(AllowPrefix, " ")) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, strings.TrimRight(AllowPrefix, " "))
				fields := strings.Fields(rest)
				if len(fields) == 0 || ByName(fields[0]) == nil {
					s.malformed = append(s.malformed, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: StaleName,
						Message:  "malformed //adeptvet:allow directive: first word must name an analyzer (" + analyzerNames() + ")",
					})
					continue
				}
				if len(fields) < 2 {
					s.malformed = append(s.malformed, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: StaleName,
						Message:  "//adeptvet:allow " + fields[0] + " needs a reason: suppressions are audited, state why the exception is intentional",
					})
					continue
				}
				p := fset.Position(c.Pos())
				a := &allow{
					analyzer: fields[0],
					reason:   strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), fields[0])),
					pos:      c.Pos(),
					file:     p.Filename,
					line:     p.Line,
				}
				if sc, ok := docs[cg]; ok {
					a.scopeStart, a.scopeEnd = sc.start, sc.end
				}
				s.allows = append(s.allows, a)
			}
		}
	}
	return s
}

// analyzerNames lists the suite's names, comma-separated, for messages.
func analyzerNames() string {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
	}
	return strings.Join(names, ", ")
}

// suppresses reports whether some directive covers the diagnostic, and
// marks that directive used.
func (s *allowSet) suppresses(d Diagnostic) (reason string, ok bool) {
	p := s.fset.Position(d.Pos)
	for _, a := range s.allows {
		if a.analyzer != d.Analyzer {
			continue
		}
		if a.scopeStart.IsValid() {
			if d.Pos >= a.scopeStart && d.Pos < a.scopeEnd {
				a.used = true
				return a.reason, true
			}
			continue
		}
		if a.file == p.Filename && (a.line == p.Line || a.line == p.Line-1) {
			a.used = true
			return a.reason, true
		}
	}
	return "", false
}

// stale reports directives that suppressed nothing.
func (s *allowSet) stale() []Diagnostic {
	var out []Diagnostic
	for _, a := range s.allows {
		if !a.used {
			out = append(out, Diagnostic{
				Pos:      a.pos,
				Analyzer: StaleName,
				Message:  "stale //adeptvet:allow " + a.analyzer + " directive suppresses nothing; remove it",
			})
		}
	}
	return out
}

// records returns the audit view of every directive.
func (s *allowSet) records() []AllowRecord {
	out := make([]AllowRecord, 0, len(s.allows))
	for _, a := range s.allows {
		out = append(out, AllowRecord{Analyzer: a.analyzer, Reason: a.reason, Pos: s.fset.Position(a.pos)})
	}
	return out
}
