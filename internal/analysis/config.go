package analysis

import "strings"

// Package scoping. Analyzers decide applicability from the import path's
// final segments, not from a hard-coded module prefix, so the same rules
// govern adept/internal/core and the analysistest fixtures under
// testdata (module vettest, packages like vettest/maporder/core).

// determinismCritical names the packages whose behaviour must be
// bit-reproducible: anything here can reach plan output, serialized bytes,
// or float accumulation order. maporder, nondet, and floataccum treat
// these as hard scope.
var determinismCritical = map[string]bool{
	"core":      true,
	"hierarchy": true,
	"platform":  true,
	"scenario":  true,
	"portfolio": true,
}

// orderSensitive extends the determinism-critical set with packages whose
// *output ordering* must be stable even though they may read the wall
// clock: status snapshots, experiment tables, transport stats. maporder
// scopes these too; nondet does not.
var orderSensitive = map[string]bool{
	"autonomic":   true,
	"experiments": true,
	"runtime":     true,
	"model":       true,
	"sim":         true,
	"deploy":      true,
	"slo":         true,
	"stats":       true,
	"workload":    true,
	"baseline":    true,
}

// planning names the packages a plan is computed in — everything between
// a Request and a Plan's bytes. singlethread scopes these: no goroutines,
// no sync, no runtime.
var planning = map[string]bool{
	"core":      true,
	"model":     true,
	"hierarchy": true,
	"platform":  true,
	"scenario":  true,
	"workload":  true,
	"baseline":  true,
	"portfolio": true,
}

// nondetExempt names packages where wall-clock reads, environment access,
// and unseeded randomness are part of the job: metrics timestamping,
// live-runtime deadlines, calibration benchmarks, and this framework
// itself.
var nondetExempt = map[string]bool{
	"obs":      true,
	"runtime":  true,
	"service":  false, // service *is* scoped: its wall-clock stamps carry //adeptvet:allow
	"blas":     true,
	"calib":    true,
	"analysis": true,
}

// pkgSegment reports whether the import path contains seg as a path
// segment (e.g. "adept/internal/core" has segment "core").
func pkgSegment(path, seg string) bool {
	for _, s := range strings.Split(path, "/") {
		if s == seg {
			return true
		}
	}
	return false
}

func inSet(path string, set map[string]bool) bool {
	for _, s := range strings.Split(path, "/") {
		if set[s] {
			return true
		}
	}
	return false
}

// isDeterminismCritical reports whether the package's plans/bytes must be
// bit-reproducible.
func isDeterminismCritical(path string) bool { return inSet(path, determinismCritical) }

// isOrderSensitive reports whether map-iteration order can leak into the
// package's outputs.
func isOrderSensitive(path string) bool {
	return isDeterminismCritical(path) || inSet(path, orderSensitive)
}

// isPlanning reports whether the singlethread analyzer applies.
func isPlanning(path string) bool { return inSet(path, planning) }

// isNonDetScoped reports whether the nondet analyzer applies.
func isNonDetScoped(path string) bool { return !inSet(path, nondetExempt) }
