package campaign

import (
	"math"
	"testing"

	"wheels/internal/geo"
	"wheels/internal/sim"
)

// TestPositionMemoMatchesWhereAt drives the adapter's per-sample position
// memo over the whole-trip trace, the way a test adapter does — a cursor
// reset at the window start, then time moving forward tick by tick — and
// requires every position to equal whereAt(cur.At(t), t) field for field,
// Km to the bit. The windows cover ticks before the trace starts, every
// overnight gap (fine ticks at both edges, coarse ones across the night)
// and the trace end, each once with a fresh memo and once all in one
// continuous run, and the test requires every whereAt branch to occur.
func TestPositionMemoMatchesWhereAt(t *testing.T) {
	tr := geo.DriveLimited(geo.NewRoute(), sim.NewRNG(23).Stream("drive"), 0, 0)
	c := &Campaign{Trace: tr}
	samples := tr.Samples

	// Each window is a start time, a list of (until, dt) tick runs.
	type run struct{ until, dt float64 }
	type window struct {
		start float64
		runs  []run
	}
	first, end := samples[0], samples[len(samples)-1]
	windows := []window{{first.T - 2, []run{{first.T + 4, 0.02}}}}
	gaps := 0
	for i := 0; i+1 < len(samples); i++ {
		last, next := samples[i], samples[i+1]
		if next.T-last.T <= maxExtrapolateSec {
			continue
		}
		gaps++
		windows = append(windows, window{last.T - 3, []run{
			{last.T + maxExtrapolateSec + 1, 0.005}, // extrapolation, then into the gap
			{next.T - 3, 37.1},                      // across the night
			{next.T + 4, 0.02},                      // the next day's first samples
		}})
	}
	windows = append(windows, window{end.T - 3, []run{{end.T + maxExtrapolateSec + 3, 0.01}}})
	if gaps == 0 {
		t.Fatal("trace has no overnight gap")
	}

	seen := map[posMode]int{}
	check := func(m *posMemo, cur *geo.TraceCursor, tm float64) {
		t.Helper()
		got := m.at(samples, cur.At(tm), tm)
		want := c.whereAt(tr.At(tm), tm)
		if *got != want || math.Float64bits(got.Km) != math.Float64bits(want.Km) {
			t.Fatalf("t=%.3f: memo %+v, whereAt %+v", tm, *got, want)
		}
		seen[m.mode]++
	}
	var contMemo posMemo
	var contCur geo.TraceCursor
	contCur.ResetAt(tr, windows[0].start)
	for _, w := range windows {
		var m posMemo
		var cur geo.TraceCursor
		cur.ResetAt(tr, w.start)
		tm := w.start
		for _, r := range w.runs {
			for ; tm < r.until; tm += r.dt {
				check(&m, &cur, tm)
				check(&contMemo, &contCur, tm)
			}
		}
	}
	for _, mode := range []posMode{posBefore, posAt, posExtrap, posNext} {
		if seen[mode] == 0 {
			t.Errorf("whereAt branch %d never exercised (seen %v)", mode, seen)
		}
	}
}
