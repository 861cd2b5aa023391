package main

import (
	"math"
	"testing"
)

func TestParseProcStatCPU(t *testing.T) {
	// A command name with spaces and parentheses must not shift the fields.
	const stat = "4242 (adeptd (v2) x) S 1 4242 4242 0 -1 4194560 1203 0 0 0 1234 566 0 0 20 0 9 0 8812 1268 0 18446744073709551615 0 0 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n"
	got, err := parseProcStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := (1234.0 + 566.0) / clockTick; got != want {
		t.Errorf("cpu seconds = %g, want %g", got, want)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 x S"} {
		if _, err := parseProcStatCPU(bad); err == nil {
			t.Errorf("parseProcStatCPU(%q) did not fail", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	const status = "Name:\tadeptd\nVmPeak:\t 1234567 kB\nVmHWM:\t  262144 kB\nVmRSS:\t  100000 kB\n"
	got, err := parseVmHWM(status)
	if err != nil {
		t.Fatal(err)
	}
	if got != 256 {
		t.Errorf("VmHWM = %g MiB, want 256", got)
	}
	for _, bad := range []string{"", "VmRSS:\t1 kB\n", "VmHWM:\tlots kB\n", "VmHWM:\t12 MB\n"} {
		if _, err := parseVmHWM(bad); err == nil {
			t.Errorf("parseVmHWM(%q) did not fail", bad)
		}
	}
}

func TestParseHostCPU(t *testing.T) {
	// user nice system idle iowait irq softirq steal guest guest_nice
	const stat = "cpu  100 5 50 800 10 0 5 30 7 0\ncpu0 50 2 25 400 5 0 2 15 3 0\n"
	total, steal, err := parseHostCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	// guest time is already inside user: it is not added again.
	if total != 1000 || steal != 30 {
		t.Errorf("total %g steal %g, want 1000 and 30", total, steal)
	}
	if math.Abs(steal/total-0.03) > 1e-12 {
		t.Errorf("steal share %g, want 0.03", steal/total)
	}
	for _, bad := range []string{"", "cpu0 1 2 3 4 5 6 7 8\n", "cpu 1 2 3\n", "cpu a b c d e f g h\n"} {
		if _, _, err := parseHostCPU(bad); err == nil {
			t.Errorf("parseHostCPU(%q) did not fail", bad)
		}
	}
}
