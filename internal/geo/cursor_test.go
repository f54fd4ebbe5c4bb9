package geo

import (
	"testing"

	"wheels/internal/sim"
)

// TestCursorMatchesRoute sweeps the route forward (with occasional rewinds)
// and checks every cursor answer against the binary-search Route methods.
func TestCursorMatchesRoute(t *testing.T) {
	r := NewRoute()
	cur := r.Cursor()
	kms := []float64{-1, 0, 0.05, 3, 120, 119, 500, 2000, 1999.5, 4000,
		r.LengthKm() - 0.01, r.LengthKm(), r.LengthKm() + 50, 10, 5700}
	for km := 0.0; km < r.LengthKm(); km += 7.3 {
		kms = append(kms, km)
	}
	for _, km := range kms {
		if got, want := cur.PosAt(km), r.PosAt(km); got != want {
			t.Fatalf("PosAt(%.2f): cursor %v, route %v", km, got, want)
		}
		if got, want := cur.RoadClassAt(km), r.RoadClassAt(km); got != want {
			t.Fatalf("RoadClassAt(%.2f): cursor %v, route %v", km, got, want)
		}
		if got, want := cur.TimezoneAt(km), r.TimezoneAt(km); got != want {
			t.Fatalf("TimezoneAt(%.2f): cursor %v, route %v", km, got, want)
		}
		gc, gok := cur.CityAreaAt(km)
		wc, wok := r.CityAreaAt(km)
		if gc.Name != wc.Name || gok != wok {
			t.Fatalf("CityAreaAt(%.2f): cursor (%q,%v), route (%q,%v)",
				km, gc.Name, gok, wc.Name, wok)
		}
	}
}

// TestTraceCursorMatchesAt sweeps a drive trace forward (with rewinds) and
// checks the cursor index against the binary-search Trace.At.
func TestTraceCursorMatchesAt(t *testing.T) {
	r := NewRoute()
	tr := DriveLimited(r, sim.NewRNG(23).Stream("drive"), 0, 0)
	cur := tr.Cursor()
	last := tr.Samples[len(tr.Samples)-1].T
	times := []float64{-5, 0, 0.5, 100, 99.7, 5000, 4999, last, last + 10}
	for tt := 0.0; tt < last; tt += last / 2000 {
		times = append(times, tt)
	}
	for _, tt := range times {
		if got, want := cur.At(tt), tr.At(tt); got != want {
			t.Fatalf("At(%.2f): cursor %d, trace %d", tt, got, want)
		}
	}
}

// TestTraceCursorResetAtMatchesAt positions a cursor with ResetAt at random
// times — inside driving days, inside every overnight gap, and before and
// past the trace — and checks that it and a forward step from it answer
// exactly as the binary-search Trace.At does.
func TestTraceCursorResetAtMatchesAt(t *testing.T) {
	r := NewRoute()
	tr := DriveLimited(r, sim.NewRNG(23).Stream("drive"), 0, 0)
	s := tr.Samples
	first, last := s[0].T, s[len(s)-1].T
	times := []float64{first - 100, first, last, last + 100}
	gaps := 0
	for i := 0; i+1 < len(s); i++ {
		if s[i+1].T-s[i].T > 2 {
			gaps++
			mid := s[i].T + (s[i+1].T-s[i].T)/2
			times = append(times, s[i].T, s[i].T+3, mid, s[i+1].T-0.5, s[i+1].T)
		}
	}
	if gaps == 0 {
		t.Fatal("trace has no overnight gaps; the test would not cover them")
	}
	rng := sim.NewRNG(7)
	for i := 0; i < 2000; i++ {
		times = append(times, rng.Uniform(first-50, last+50))
	}
	var cur TraceCursor
	for _, tt := range times {
		cur.ResetAt(tr, tt)
		if got, want := cur.At(tt), tr.At(tt); got != want {
			t.Fatalf("ResetAt(%.2f) then At: cursor %d, trace %d", tt, got, want)
		}
		if got, want := cur.At(tt+1.7), tr.At(tt+1.7); got != want {
			t.Fatalf("ResetAt(%.2f) then At(+1.7s): cursor %d, trace %d", tt, got, want)
		}
	}
}

// TestCursorAllocationFree pins the cursor queries at zero allocations.
func TestCursorAllocationFree(t *testing.T) {
	r := NewRoute()
	cur := r.Cursor()
	km := 0.0
	allocs := testing.AllocsPerRun(100, func() {
		_ = cur.RoadClassAt(km)
		_ = cur.TimezoneAt(km)
		km += 3.1
	})
	if allocs != 0 {
		t.Errorf("route cursor = %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkRouteCursor times the monotone positional queries the campaign
// loop issues per tick, via the memoized cursor.
func BenchmarkRouteCursor(b *testing.B) {
	r := NewRoute()
	cur := r.Cursor()
	total := r.LengthKm()
	km := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cur.RoadClassAt(km)
		_ = cur.TimezoneAt(km)
		km += 0.01
		if km >= total {
			km = 0
		}
	}
}

// BenchmarkRouteDirect is the same sweep through the binary-search Route
// methods, for comparison against BenchmarkRouteCursor.
func BenchmarkRouteDirect(b *testing.B) {
	r := NewRoute()
	total := r.LengthKm()
	km := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.RoadClassAt(km)
		_ = r.TimezoneAt(km)
		km += 0.01
		if km >= total {
			km = 0
		}
	}
}
