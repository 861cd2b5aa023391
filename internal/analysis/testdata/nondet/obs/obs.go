// Package obs is exempt from nondet by configuration: wall-clock reads
// are its job.
package obs

import "time"

// Stamp is clean here; the "obs" segment is exempt.
func Stamp() time.Time { return time.Now() }

// Timer measures one duration.
type Timer struct{ start time.Time }

// StartTimer starts a Timer.
func StartTimer() Timer { return Timer{start: time.Now()} }

// Elapsed returns the time since the Timer started.
func (t Timer) Elapsed() time.Duration { return time.Since(t.start) }
