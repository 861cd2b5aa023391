package scenario

import (
	"math"
	"testing"
)

// TestQuantizerClassAliasesLevels: levels whose snapped powers round to
// one float are one class, whichever of them is met first. Over a power
// column the quantizer spaces its levels a step of the column's range
// apart, too far for two levels a node can reach to round together, so
// this drives the table directly: a step of a quarter ulp of lo puts
// levels 0-2 on lo and levels 3 and 4 on the next float up.
func TestQuantizerClassAliasesLevels(t *testing.T) {
	one := 1.0
	up := math.Nextafter(one, 2)
	q := &quantizer{lo: one, step: (up - one) / 4, levels: 8, links: []float64{0}, canon: []int{0}, cells: make([]cell, 8)}
	for _, c := range []struct {
		level int
		power float64
		class int32
	}{{4, up, 1}, {2, one, 2}, {3, up, 1}, {0, one, 2}, {1, one, 2}} {
		if got := q.class(c.level, 0, c.power); got != c.class {
			t.Errorf("level %d (%v): class %d, want %d", c.level, c.power, got, c.class)
		}
	}
	if len(q.classes) != 2 {
		t.Errorf("%d classes, want 2: %+v", len(q.classes), q.classes)
	}
	// A level whose power is w as a float but not in bits is no class.
	q = &quantizer{lo: 0, step: 1, levels: 2, links: []float64{0}, canon: []int{0}, cells: make([]cell, 2)}
	if got := q.class(0, 0, math.Copysign(0, -1)); got != 0 {
		t.Errorf("-0 against +0: class %d, want none", got)
	}
}

// TestLevelIsRound holds the snap's level to math.Round((w−lo)/step), the
// rounding of the Quantize oracle, where rounding by truncation could part
// from it: every tie k+½ below the table's top and the floats either side
// of it, zero of either sign, the float just below ½ (where adding ½ and
// truncating rounds up), the top levels−½ itself, NaN and the infinities.
// A level is the table's iff 0 ≤ math.Round(y) < levels.
func TestLevelIsRound(t *testing.T) {
	for _, levels := range []int{2, 8, 20, 1 << 12} {
		top := float64(levels) - 0.5
		ys := []float64{0, math.Copysign(0, -1), 0.49999999999999994, top, math.NaN(), math.Inf(1), math.Inf(-1)}
		for k := range levels {
			tie := float64(k) + 0.5
			ys = append(ys, math.Nextafter(tie, 0), tie, math.Nextafter(tie, math.Inf(1)))
		}
		for _, y := range ys {
			r := math.Round(y)
			want := r >= 0 && r < float64(levels)
			if got := inTable(y, top); got != want {
				t.Errorf("levels %d, y %v: in the table %v, math.Round's %v %v", levels, y, got, r, want)
			} else if got && round(y) != int(r) {
				t.Errorf("levels %d, y %v: level %d, math.Round's %v", levels, y, round(y), r)
			}
		}
	}
}
