// Package service is scoped by nondet but plans nothing: it may time its
// requests through an obs.Timer, and may not call time.Now itself.
package service

import (
	"time"

	"vettest/nondet/obs"
)

// Latency is clean: durations go through obs.Timer outside the planner.
func Latency(f func()) time.Duration {
	t := obs.StartTimer()
	f()
	return t.Elapsed()
}

// Stamp still reads the ambient clock.
func Stamp() time.Time {
	return time.Now() // want nondet
}
