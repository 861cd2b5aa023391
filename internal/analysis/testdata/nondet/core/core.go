// Package core is the nondet fixture: not an exempt segment, so all
// three reproducibility leaks are flagged.
package core

import (
	"math/rand"
	"os"
	"time"

	"vettest/nondet/obs"
)

// Stamp reads the ambient wall clock.
func Stamp() time.Time {
	return time.Now() // want nondet
}

// Jitter consults the shared global generator.
func Jitter() float64 {
	return rand.Float64() // want nondet
}

// Seeded builds an explicit generator: constructors are fine, and the
// method call goes through a *rand.Rand receiver, not the global.
func Seeded(seed int64) float64 {
	return rand.New(rand.NewSource(seed)).Float64()
}

// Debug reads ambient process state.
func Debug() bool {
	return os.Getenv("VETTEST_DEBUG") != "" // want nondet
}

// Uptime is an observability-only stamp with an audited exception.
func Uptime(start time.Time) float64 {
	//adeptvet:allow nondet observability-only stamp; never an input to planning
	return time.Since(start).Seconds() // want nondet suppressed
}

// Timed reads the clock through an obs.Timer: in a planner package that is
// a wall-clock read like any other.
func Timed(f func()) time.Duration {
	t := obs.StartTimer() // want nondet
	f()
	return t.Elapsed() // want nondet
}

// Report times a variant for a report only, with an audited exception
// covering the whole function.
//
//adeptvet:allow nondet report-only duration; no planning decision reads it
func Report(f func()) float64 {
	t := obs.StartTimer() // want nondet suppressed
	f()
	return t.Elapsed().Seconds() // want nondet suppressed
}
