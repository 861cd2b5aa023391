package analysis

import (
	"fmt"
	"go/token"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The fixtures live in testdata (module vettest), a directory the go
// tool ignores, so they never leak into the repo's own builds or vet
// runs. Each fixture package marks its expected findings with trailing
// comments:
//
//	expr // want <analyzer>
//	expr // want <analyzer> suppressed
//	// want -1 <analyzer>        (finding expected one line above)
//
// The harness loads the whole fixture module through the same loader
// the standalone adeptvet binary uses, runs the full suite with the
// stale-directive audit on, and demands an exact match: every expected
// finding present with the right suppression state, no finding
// unexpected.

var wantRE = regexp.MustCompile(`^// want(?: ([+-]\d+))? ([a-z]+)( suppressed)?$`)

var testdataUnits = sync.OnceValues(func() ([]*Unit, error) {
	return Load("testdata", []string{"./..."})
})

// expectation is one parsed want comment.
type findingKey struct {
	file     string
	line     int
	analyzer string
}

func collectWants(t *testing.T, u *Unit) map[findingKey]bool {
	t.Helper()
	wants := make(map[findingKey]bool)
	for _, f := range u.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := u.Fset.Position(c.Pos())
				offset := 0
				if m[1] != "" {
					var err error
					if offset, err = strconv.Atoi(m[1]); err != nil {
						t.Fatalf("%s: bad want offset %q", pos, m[1])
					}
				}
				key := findingKey{file: pos.Filename, line: pos.Line + offset, analyzer: m[2]}
				if _, dup := wants[key]; dup {
					t.Fatalf("%s: duplicate want for %s", pos, key.analyzer)
				}
				wants[key] = m[3] != ""
			}
		}
	}
	return wants
}

// checkFixture runs the full suite over every fixture package under
// vettest/<name>/ and compares findings against the want comments.
func checkFixture(t *testing.T, name string) {
	t.Helper()
	units, err := testdataUnits()
	if err != nil {
		t.Fatalf("loading testdata module: %v", err)
	}
	prefix := "vettest/" + name + "/"
	ran := 0
	for _, u := range units {
		if !strings.HasPrefix(u.ImportPath, prefix) {
			continue
		}
		ran++
		findings, _, err := RunUnit(u, All(), RunOptions{ReportStale: true})
		if err != nil {
			t.Fatalf("%s: %v", u.ImportPath, err)
		}
		wants := collectWants(t, u)
		for _, f := range findings {
			key := findingKey{file: f.Pos.Filename, line: f.Pos.Line, analyzer: f.Analyzer}
			wantSuppressed, ok := wants[key]
			if !ok {
				t.Errorf("%s: unexpected %s finding: %s", f.Pos, f.Analyzer, f.Message)
				continue
			}
			delete(wants, key)
			if f.Suppressed != wantSuppressed {
				t.Errorf("%s: %s finding suppressed=%v, want %v", f.Pos, f.Analyzer, f.Suppressed, wantSuppressed)
			}
			if f.Suppressed && f.Reason == "" {
				t.Errorf("%s: suppressed %s finding lost its //adeptvet:allow reason", f.Pos, f.Analyzer)
			}
		}
		for key := range wants {
			t.Errorf("%s:%d: expected %s finding never reported", key.file, key.line, key.analyzer)
		}
	}
	if ran == 0 {
		t.Fatalf("no fixture packages under %s", prefix)
	}
}

func TestMapOrderFixture(t *testing.T)   { checkFixture(t, "maporder") }
func TestNonDetFixture(t *testing.T)     { checkFixture(t, "nondet") }
func TestFloatAccumFixture(t *testing.T) { checkFixture(t, "floataccum") }
func TestCtxFlowFixture(t *testing.T)    { checkFixture(t, "ctxflow") }
func TestMetricNameFixture(t *testing.T) { checkFixture(t, "metricname") }
func TestHotAllocFixture(t *testing.T)   { checkFixture(t, "hotalloc") }
func TestAllowAuditFixture(t *testing.T) { checkFixture(t, "allowaudit") }

func TestSingleThreadFixture(t *testing.T) { checkFixture(t, "singlethread") }

// TestFixtureWantsExercised guards the harness itself: a fixture whose
// want comments silently stop matching would otherwise pass vacuously.
func TestFixtureWantsExercised(t *testing.T) {
	units, err := testdataUnits()
	if err != nil {
		t.Fatalf("loading testdata module: %v", err)
	}
	perAnalyzer := make(map[string]int)
	suppressedPer := make(map[string]int)
	for _, u := range units {
		for key, suppressed := range collectWants(t, u) {
			perAnalyzer[key.analyzer]++
			if suppressed {
				suppressedPer[key.analyzer]++
			}
		}
	}
	for _, a := range All() {
		if perAnalyzer[a.Name] == 0 {
			t.Errorf("analyzer %s has no positive fixture case", a.Name)
		}
		if suppressedPer[a.Name] == 0 {
			t.Errorf("analyzer %s has no suppressed fixture case", a.Name)
		}
	}
	if perAnalyzer[StaleName] == 0 {
		t.Errorf("the %s audit has no fixture case", StaleName)
	}
}

// TestStaleDirectiveSkippedOnPartialRun checks that a subset run does
// not misreport in-use directives as stale: only the full suite can
// tell stale from not-yet-exercised.
func TestStaleDirectiveSkippedOnPartialRun(t *testing.T) {
	units, err := testdataUnits()
	if err != nil {
		t.Fatalf("loading testdata module: %v", err)
	}
	for _, u := range units {
		if u.ImportPath != "vettest/maporder/core" {
			continue
		}
		findings, _, err := RunUnit(u, []*Analyzer{NonDet}, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range findings {
			t.Errorf("partial nondet run over maporder fixture reported %s: %s", f.Analyzer, f.Message)
		}
		return
	}
	t.Fatal("fixture package vettest/maporder/core not loaded")
}

// TestRepoSelfScan is the acceptance gate: the full suite over the
// repository itself must report zero unsuppressed findings — every
// invariant holds, and every exception carries an audited
// //adeptvet:allow directive (none of them stale).
func TestRepoSelfScan(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide type-check in -short mode")
	}
	units, err := Load("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("loading repository: %v", err)
	}
	if len(units) < 10 {
		t.Fatalf("self-scan loaded only %d packages; pattern resolution broke", len(units))
	}
	var allows int
	var suppressed int
	for _, u := range units {
		findings, records, err := RunUnit(u, All(), RunOptions{ReportStale: true})
		if err != nil {
			t.Fatalf("%s: %v", u.ImportPath, err)
		}
		allows += len(records)
		for _, f := range findings {
			if f.Suppressed {
				suppressed++
				continue
			}
			t.Errorf("unsuppressed finding: %s", f)
		}
	}
	if allows == 0 {
		t.Error("self-scan saw no //adeptvet:allow directives; directive collection broke")
	}
	if suppressed == 0 {
		t.Error("self-scan saw no suppressed findings; suppression matching broke")
	}
}

// position formatting sanity for Finding.String, used verbatim in vet
// output.
func TestFindingString(t *testing.T) {
	f := Finding{
		Analyzer: "maporder",
		Message:  "msg",
		Pos:      token.Position{Filename: "x.go", Line: 3, Column: 2},
	}
	if got, want := f.String(), "x.go:3:2: maporder: msg"; got != want {
		t.Fatalf("Finding.String() = %q, want %q", got, want)
	}
}

func ExampleByName() {
	fmt.Println(ByName("maporder").Name, ByName("nope") == nil)
	// Output: maporder true
}
