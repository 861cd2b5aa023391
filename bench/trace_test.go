package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", StartNS: 0, EndNS: 100},
		// Two overlapping children cover [10, 50) once, not 30+30.
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Name: "b", StartNS: 20, EndNS: 50},
		// A grandchild takes time from its parent only.
		{ID: 4, Parent: 2, Name: "a.inner", StartNS: 15, EndNS: 25},
		// A child that outlives its parent is clipped to it.
		{ID: 5, Parent: 1, Name: "late", StartNS: 90, EndNS: 130},
		// A second root: no parent loses time to it.
		{ID: 6, Parent: 0, Name: "aside", StartNS: 100, EndNS: 120},
	}
	want := map[int]int64{1: 100 - 40 - 10, 2: 30 - 10, 3: 30, 4: 10, 5: 40, 6: 20}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

func TestAggregate(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 0, Name: "pipeline.plan", StartNS: 0, EndNS: 1_000_000},
		{ID: 2, Parent: 1, Op: 0, Name: "service.cache", StartNS: 0, EndNS: 100_000},
		{ID: 3, Parent: 1, Op: 0, Name: "service.cache", StartNS: 500_000, EndNS: 700_000},
		{ID: 4, Op: 1, Name: "pipeline.plan", StartNS: 2_000_000, EndNS: 2_500_000},
		{ID: 5, Parent: 4, Op: 1, Name: "service.cache", StartNS: 2_000_000, EndNS: 2_100_000},
		{ID: 6, Parent: 4, Op: 1, Name: "service.key", StartNS: 2_100_000, EndNS: 2_400_000},
	}
	ls := aggregate(spans)
	// Per op the layer's spans are summed (0.3 ms and 0.1 ms), then the
	// median is taken over the ops that called the layer.
	if got := ls.medianMS["service.cache"]; got != 0.2 {
		t.Errorf("service.cache = %g ms, want 0.2", got)
	}
	if got := ls.medianMS["service.key"]; got != 0.3 {
		t.Errorf("service.key = %g ms, want 0.3 (op 0 never called it and must not count as 0)", got)
	}
	if ls.calls["service.cache"] != 3 {
		t.Errorf("service.cache calls = %d, want 3", ls.calls["service.cache"])
	}
	// Attributed time is what the non-root spans account for.
	if ls.attributedNS[0] != 300_000 || ls.attributedNS[1] != 400_000 {
		t.Errorf("attributed = %v, want 300000 and 400000", ls.attributedNS)
	}
}

func TestTracerParents(t *testing.T) {
	tr := &tracer{}
	tr.op = 7
	endRoot := tr.startRoot("pipeline.plan")
	endA := tr.start("a")
	endB := tr.start("b")
	endB()
	endA()
	endC := tr.start("c")
	aside := tr.startRoot("aside") // a root even while others are open
	aside()
	endC()
	endRoot()
	wantParent := map[string]int{"pipeline.plan": 0, "a": 1, "b": 2, "c": 1, "aside": 0}
	for _, s := range tr.spans {
		if s.Parent != wantParent[s.Name] {
			t.Errorf("span %s has parent %d, want %d", s.Name, s.Parent, wantParent[s.Name])
		}
		if s.Op != 7 || s.EndNS < s.StartNS {
			t.Errorf("span %+v: wrong op or ends before it starts", s)
		}
	}
	if len(tr.open) != 0 {
		t.Errorf("%d spans left open", len(tr.open))
	}
	tr.off = true
	tr.start("untraced")()
	if len(tr.spans) != 5 {
		t.Errorf("a switched-off tracer recorded a span")
	}
}
