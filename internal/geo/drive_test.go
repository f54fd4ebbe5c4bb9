package geo

import (
	"math"
	"testing"

	"wheels/internal/sim"
)

func testTrace(t *testing.T) *Trace {
	t.Helper()
	return DriveLimited(NewRoute(), sim.NewRNG(23).Stream("drive"), 0, 0)
}

func TestDriveDeterminism(t *testing.T) {
	a := DriveLimited(NewRoute(), sim.NewRNG(23).Stream("drive"), 0, 0)
	b := DriveLimited(NewRoute(), sim.NewRNG(23).Stream("drive"), 0, 0)
	if len(a.Samples) != len(b.Samples) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a.Samples), len(b.Samples))
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("traces diverge at sample %d", i)
		}
	}
}

// truncateAfterKm drops every sample more than trailSec seconds of trace
// time past the first sample at or beyond km: the full trace cut to what a
// consumer bounded to km (plus lookahead shorter than trailSec) observes.
func truncateAfterKm(tr *Trace, km, trailSec float64) {
	idx := tr.AtKm(km)
	if idx >= len(tr.Samples) {
		return
	}
	cut := tr.Samples[idx].T + trailSec
	end := idx
	for end < len(tr.Samples) && tr.Samples[end].T <= cut {
		end++
	}
	tr.Samples = tr.Samples[:end]
}

// TestDriveLimitedMatchesTruncate pins the early-stop contract: stopping
// the generator at (kmLimit, trailSec) yields exactly the samples the full
// drive keeps after truncateAfterKm with the same bounds — same draws, same
// floats, just fewer of them.
func TestDriveLimitedMatchesTruncate(t *testing.T) {
	route := NewRoute()
	for _, kmLimit := range []float64{40, 120, 1000} {
		full := DriveLimited(route, sim.NewRNG(23).Stream("drive"), 0, 0)
		truncateAfterKm(full, kmLimit, 3600)
		lim := DriveLimited(route, sim.NewRNG(23).Stream("drive"), kmLimit, 3600)
		if len(lim.Samples) != len(full.Samples) {
			t.Fatalf("kmLimit %.0f: %d limited samples, want %d", kmLimit, len(lim.Samples), len(full.Samples))
		}
		for i := range full.Samples {
			if lim.Samples[i] != full.Samples[i] {
				t.Fatalf("kmLimit %.0f: samples diverge at %d", kmLimit, i)
			}
		}
	}
}

// TestDriveLimitedNoLimit checks that a zero limit is the full drive: the
// trace runs through the last trip day.
func TestDriveLimitedNoLimit(t *testing.T) {
	r := NewRoute()
	lim := DriveLimited(r, sim.NewRNG(23).Stream("drive"), 0, 0)
	if last := lim.Samples[len(lim.Samples)-1]; last.Day != r.Days() {
		t.Fatalf("unlimited drive ends on day %d, want %d", last.Day, r.Days())
	}
}

func TestDriveCoversRoute(t *testing.T) {
	tr := testTrace(t)
	r := tr.Route
	last := tr.Samples[len(tr.Samples)-1]
	if last.Km < r.LengthKm()-1 {
		t.Errorf("trace ends at km %.1f, route is %.1f km", last.Km, r.LengthKm())
	}
	if last.Day != 8 {
		t.Errorf("trace ends on day %d, want 8", last.Day)
	}
}

func TestDriveMonotonic(t *testing.T) {
	tr := testTrace(t)
	for i := 1; i < len(tr.Samples); i++ {
		if tr.Samples[i].T <= tr.Samples[i-1].T {
			t.Fatalf("time not strictly increasing at sample %d", i)
		}
		if tr.Samples[i].Km < tr.Samples[i-1].Km {
			t.Fatalf("distance decreased at sample %d", i)
		}
	}
}

func TestDriveSpeedBinsByRoadClass(t *testing.T) {
	tr := testTrace(t)
	// Each road class must concentrate in its expected speed bin.
	inBin := map[RoadClass]int{}
	total := map[RoadClass]int{}
	want := map[RoadClass]SpeedBin{RoadCity: SpeedLow, RoadSuburban: SpeedMid, RoadHighway: SpeedHigh}
	for _, s := range tr.Samples {
		total[s.Road]++
		if BinForSpeed(s.MPH) == want[s.Road] {
			inBin[s.Road]++
		}
	}
	for class, bin := range want {
		if total[class] == 0 {
			t.Fatalf("no samples on %v roads", class)
		}
		frac := float64(inBin[class]) / float64(total[class])
		if frac < 0.55 {
			t.Errorf("%v samples in %v bin: %.2f, want > 0.55", class, bin, frac)
		}
	}
}

func TestDriveDailySchedule(t *testing.T) {
	tr := testTrace(t)
	// Every day's driving must fit in under 14 hours and days must not
	// overlap in time.
	dayStart := map[int]float64{}
	dayEnd := map[int]float64{}
	for _, s := range tr.Samples {
		if _, ok := dayStart[s.Day]; !ok {
			dayStart[s.Day] = s.T
		}
		dayEnd[s.Day] = s.T
	}
	for day := 1; day <= 8; day++ {
		span := dayEnd[day] - dayStart[day]
		if span <= 0 || span > 14*3600 {
			t.Errorf("day %d spans %.1f h, want (0, 14]", day, span/3600)
		}
		if day > 1 && dayStart[day] <= dayEnd[day-1] {
			t.Errorf("day %d starts before day %d ends", day, day-1)
		}
	}
}

func TestDriveTotalDuration(t *testing.T) {
	tr := testTrace(t)
	h := float64(len(tr.Samples)) / 3600 // one sample per driven second
	// 5711 km over 8 days at mixed speeds: roughly 50-75 hours of driving.
	if h < 45 || h > 80 {
		t.Errorf("total driving time = %.1f h, want 45-80", h)
	}
}

func TestTraceAt(t *testing.T) {
	tr := testTrace(t)
	if got := tr.At(tr.Samples[0].T - 1); got != -1 {
		t.Errorf("At(before start) = %d, want -1", got)
	}
	mid := tr.Samples[1000].T
	if got := tr.At(mid); tr.Samples[got].T != mid {
		t.Errorf("At(exact sample time) returned T=%v, want %v", tr.Samples[got].T, mid)
	}
	if got := tr.At(mid + 0.5); tr.Samples[got].T != mid {
		t.Errorf("At(t+0.5) returned T=%v, want %v", tr.Samples[got].T, mid)
	}
	last := tr.At(math.Inf(1))
	if last != len(tr.Samples)-1 {
		t.Errorf("At(inf) = %d, want last index", last)
	}
}

func TestTraceSliceAndMiles(t *testing.T) {
	tr := testTrace(t)
	t0 := tr.Samples[500].T
	s := tr.Slice(t0, t0+30)
	if len(s) != 30 {
		t.Fatalf("30 s slice has %d samples, want 30", len(s))
	}
	miles := tr.MilesBetween(t0, t0+30)
	if miles < 0 || miles > 0.8 {
		t.Errorf("miles in 30 s = %.2f, want within [0, 0.8]", miles)
	}
	if got := tr.MilesBetween(t0, t0); got != 0 {
		t.Errorf("zero-width interval drove %v miles", got)
	}
}

func TestDayStartLocalTime(t *testing.T) {
	tr := testTrace(t)
	// Day 1 starts at sim time 0 (8:00 PDT).
	if tr.Samples[0].T != 0 {
		t.Errorf("day 1 starts at sim %v, want 0", tr.Samples[0].T)
	}
	// Each later day starts at 8:00 local: (T mod 86400) must equal the
	// local-8am UTC offset for the day's starting zone.
	for day := 2; day <= 8; day++ {
		var first Sample
		found := false
		for _, s := range tr.Samples {
			if s.Day == day {
				first = s
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("no samples on day %d", day)
		}
		wantOffset := (8 - float64(first.Zone.UTCOffsetHours()) - 15) * 3600
		gotOffset := first.T - float64(day-1)*86400
		if math.Abs(gotOffset-wantOffset) > 1 {
			t.Errorf("day %d starts at offset %.0f s, want %.0f (8:00 local in %v)",
				day, gotOffset, wantOffset, first.Zone)
		}
	}
}

func TestTraceAtKm(t *testing.T) {
	r := NewRoute()
	tr := DriveLimited(r, sim.NewRNG(23).Stream("drive"), 0, 0)
	// The index returned is the first sample at or past the requested km.
	for _, km := range []float64{0, 1, 137.5, 2500, r.LengthKm() / 2} {
		i := tr.AtKm(km)
		if i >= len(tr.Samples) {
			t.Fatalf("AtKm(%v) = %d beyond the trace", km, i)
		}
		if tr.Samples[i].Km < km {
			t.Errorf("AtKm(%v): sample %d at km %v is before the target", km, i, tr.Samples[i].Km)
		}
		if i > 0 && tr.Samples[i-1].Km >= km {
			t.Errorf("AtKm(%v): sample %d-1 at km %v already reaches the target", km, i, tr.Samples[i-1].Km)
		}
	}
	if i := tr.AtKm(r.LengthKm() + 100); i != len(tr.Samples) {
		t.Errorf("AtKm beyond the route = %d, want len(Samples)", i)
	}
	if i := tr.AtKm(-1); i != 0 {
		t.Errorf("AtKm(-1) = %d, want 0", i)
	}
}
