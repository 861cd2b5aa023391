package obs

import (
	"context"
	"testing"
	"time"
)

func ts(sec int) time.Time {
	return time.Unix(1_700_000_000+int64(sec), 0).UTC()
}

func TestSeriesRingEviction(t *testing.T) {
	s := NewSeries(4)
	for i := 0; i < 6; i++ {
		s.Add(ts(i), float64(i*10))
	}
	pts := s.Points()
	if len(pts) != 4 {
		t.Fatalf("Points len = %d, want 4", len(pts))
	}
	// Oldest two (0, 1) evicted; retained are 2..5 oldest first.
	for i, p := range pts {
		want := float64((i + 2) * 10)
		if p.V != want || !p.T.Equal(ts(i+2)) {
			t.Fatalf("point %d = (%v, %g), want (%v, %g)", i, p.T, p.V, ts(i+2), want)
		}
	}
}

func TestSeriesDelta(t *testing.T) {
	s := NewSeries(16)
	if _, _, ok := s.Delta(time.Minute); ok {
		t.Fatalf("Delta on empty series should not be ok")
	}
	s.Add(ts(0), 100)
	if _, _, ok := s.Delta(time.Minute); ok {
		t.Fatalf("Delta with one sample should not be ok")
	}
	for i := 1; i <= 10; i++ {
		s.Add(ts(i), 100+float64(i)*5) // +5 per second
	}
	// Full window available: exactly 4 seconds back.
	d, span, ok := s.Delta(4 * time.Second)
	if !ok || d != 20 || span != 4*time.Second {
		t.Fatalf("Delta(4s) = (%g, %v, %v), want (20, 4s, true)", d, span, ok)
	}
	// Window longer than retained history: anchored at oldest, span says so.
	d, span, ok = s.Delta(time.Hour)
	if !ok || d != 50 || span != 10*time.Second {
		t.Fatalf("Delta(1h) = (%g, %v, %v), want (50, 10s, true)", d, span, ok)
	}
}

func TestStoreSampleAndWatch(t *testing.T) {
	st := NewStore(8)
	var c Counter
	g := &Gauge{}
	g.Set(7)
	h := newHistogram([]float64{1, 2, 4})
	sr := st.WatchCounter("reqs", &c)
	st.WatchGauge("depth", g)
	st.WatchQuantile("p50", h, 0.5)

	c.Add(3)
	h.Observe(1.5)
	st.Sample(ts(0))
	c.Add(2)
	st.Sample(ts(1))

	pts := sr.Points()
	if len(pts) != 2 || pts[0].V != 3 || pts[1].V != 5 {
		t.Fatalf("reqs points = %v, want values 3 then 5", pts)
	}
	snap := st.Snapshot()
	if len(snap) != 3 || len(snap["depth"]) != 2 || snap["depth"][1].V != 7 {
		t.Fatalf("Snapshot = %v", snap)
	}

	// Re-watching a name swaps the source but keeps the series history;
	// a second source under the name would sample it twice per tick.
	st.Watch("reqs", func() float64 { return 1000 })
	st.Sample(ts(2))
	pts = sr.Points()
	if len(pts) != 3 || pts[2].V != 1000 {
		t.Fatalf("after re-watch, reqs points = %v", pts)
	}
}

func TestStoreRunTicks(t *testing.T) {
	st := NewStore(64)
	var c Counter
	s := st.WatchCounter("c", &c)
	ctx, cancel := context.WithCancel(context.Background())
	ticks := make(chan time.Time, 64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		st.Run(ctx, 5*time.Millisecond, func(now time.Time) { ticks <- now })
	}()
	// First sample is immediate; wait for a few more, then stop.
	for i := 0; i < 3; i++ {
		select {
		case <-ticks:
		case <-time.After(2 * time.Second):
			t.Fatalf("tick %d never arrived", i)
		}
	}
	cancel()
	<-done
	if n := len(s.Points()); n < 3 {
		t.Fatalf("series got %d samples, want >= 3", n)
	}
}

func TestHistogramCountAtOrBelow(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1.5, 3, 3.5, 9, 100} {
		h.Observe(v)
	}
	cases := []struct {
		v     float64
		count uint64
		bound float64
	}{
		{0.5, 1, 1}, // snaps up to bound 1
		{1, 1, 1},   // exact bound
		{2, 2, 2},   // 0.5, 1.5
		{3, 4, 4},   // snaps to 4: 0.5, 1.5, 3, 3.5
		{8, 4, 8},   // nothing between 4 and 8
		{50, 6, 8},  // above ladder: everything counts, bound pegged at 8
	}
	for _, c := range cases {
		got, bound := h.CountAtOrBelow(c.v)
		if got != c.count || bound != c.bound {
			t.Fatalf("CountAtOrBelow(%g) = (%d, %g), want (%d, %g)", c.v, got, bound, c.count, c.bound)
		}
	}
}

func TestJournalSinceTruncated(t *testing.T) {
	j := NewJournal(4)
	if ev, tr := j.SinceTruncated(0); ev != nil || tr {
		t.Fatalf("empty journal: got (%v, %v)", ev, tr)
	}
	for i := 1; i <= 6; i++ {
		j.Append("k", "m", nil)
	}
	// Ring holds seqs 3..6; seqs 1-2 were evicted.

	// Fresh cursor (0) with evictions: oldest retained + truncated.
	ev, tr := j.SinceTruncated(0)
	if len(ev) != 4 || ev[0].Seq != 3 || !tr {
		t.Fatalf("Since(0) = %d events from seq %d, truncated=%v; want 4 from 3, true", len(ev), ev[0].Seq, tr)
	}
	// Cursor just below the retained window: still truncated (seq 2 lost).
	ev, tr = j.SinceTruncated(1)
	if len(ev) != 4 || !tr {
		t.Fatalf("Since(1): %d events, truncated=%v; want 4, true", len(ev), tr)
	}
	// Cursor exactly at the edge: seq 3 onward, nothing missed.
	ev, tr = j.SinceTruncated(2)
	if len(ev) != 4 || tr {
		t.Fatalf("Since(2): %d events, truncated=%v; want 4, false", len(ev), tr)
	}
	// Mid-window cursor.
	ev, tr = j.SinceTruncated(4)
	if len(ev) != 2 || ev[0].Seq != 5 || tr {
		t.Fatalf("Since(4): %v truncated=%v; want seqs 5,6 false", ev, tr)
	}
	// Cursor at or past the newest: empty, not truncated.
	for _, cur := range []uint64{6, 99} {
		if ev, tr := j.SinceTruncated(cur); ev != nil || tr {
			t.Fatalf("Since(%d) = (%v, %v), want (nil, false)", cur, ev, tr)
		}
	}
}
