package radio

import (
	"math"
	"testing"

	"wheels/internal/geo"
	"wheels/internal/sim"
)

// twinLinks builds n links with per-lane label-derived streams. Calling it
// twice with the same seed yields two independent Link sets whose RNG
// streams are byte-identical, so one set can be stepped through
// Link.StepInto and the other through a reference stepper and the outputs
// compared bit for bit.
func twinLinks(seed int64, n int) []*Link {
	root := sim.NewRNG(seed)
	links := make([]*Link, n)
	for i := range links {
		tech := Techs()[i%len(Techs())]
		links[i] = NewLink(root.Stream("twin", string(rune('a'+i)), tech.String()), TMobile, tech)
	}
	return links
}

// stepUnmemoized is Link.StepInto without its exact shortcuts: the
// interference penalty is always computed, and MCS and BLER always come
// from MCSForSINR and the written-out logistic, never from the rail memos.
// It returns s0, the SINR before the penalty, so callers can tell which
// shortcut StepInto took.
func stepUnmemoized(l *Link, st *LinkState, dt, distKm, mph float64, road geo.RoadClass) (s0 float64) {
	st.Tech = l.Tech
	l.blocked.HoldMean[0], l.blocked.HoldMean[1] = blockHolds(l.Tech, mph)
	blocked := l.blocked.Step(dt) == 1
	st.Blocked = blocked
	rsrp := meanRSRPFrom(l.eirp, l.beamGain, l.fsplRef, distKm, road) + l.shadow.Step(dt)
	if blocked {
		rsrp -= blockageLossDB
	}
	rsrp = min(max(rsrp, -140), -55)
	st.RSRPdBm = rsrp
	s0 = rsrp - noiseFloorDBm - math.Abs(l.interf.Step(dt))
	sinr := s0 - interferencePenaltyDB(distKm/l.Band.RangeKm)
	sinr = max(min(sinr, sinrMaxDB), sinrMinDB)
	st.SINRdB = sinr
	st.MCS = MCSForSINR(sinr)
	st.BLER = 0.02 + 0.35/(1+math.Exp((sinr-3.0)/2.5)) + 0.0009*mph
	if st.BLER > 0.5 {
		st.BLER = 0.5
	}
	st.CCDown, st.CCUp = l.carriersWithJit(rsrp, l.caJit.Step(dt))
	l.load.Mean = loadMean(road, mph)
	l.stepShare(dt, mph, l.load.Step(dt))
	st.CapDL = l.capacity(st, Downlink)
	st.CapUL = l.capacity(st, Uplink)
	return s0
}

// TestLinkStepIntoMatchesUnmemoized steps identically seeded twins through
// Link.StepInto and through stepUnmemoized across the operating envelope —
// near-cell geometry that pins SINR to the high rail, deep cell edges that
// pin it low, and everything between — and requires bit-identical
// LinkStates. It also requires all three rail shortcuts to have fired, so
// the equality covers them rather than only the plain path.
func TestLinkStepIntoMatchesUnmemoized(t *testing.T) {
	const lanes, ticks = 9, 400
	fast := twinLinks(42, lanes)
	ref := twinLinks(42, lanes)
	meta := sim.NewRNG(1234).Stream("geometry")
	roads := []geo.RoadClass{geo.RoadCity, geo.RoadSuburban, geo.RoadHighway}
	const dt = 0.02
	var lowSkips, highSkips, boundSkips int
	for tick := 0; tick < ticks; tick++ {
		road := roads[meta.Intn(len(roads))]
		mph := meta.Uniform(0, 85)
		for i := 0; i < lanes; i++ {
			var dist float64
			switch meta.Intn(10) {
			case 0:
				dist = meta.Uniform(0, refDistKm) // inside the reference distance
			case 1:
				dist = meta.Uniform(8, 15) // deep cell edge
			default:
				dist = meta.Uniform(0.05, 6)
			}
			var got, want LinkState
			fast[i].StepInto(&got, dt, dist, mph, road, NeedAll)
			s0 := stepUnmemoized(ref[i], &want, dt, dist, mph, road)
			if math.Float64bits(got.SINRdB) != math.Float64bits(want.SINRdB) ||
				math.Float64bits(got.BLER) != math.Float64bits(want.BLER) ||
				math.Float64bits(got.CapDL) != math.Float64bits(want.CapDL) ||
				math.Float64bits(got.CapUL) != math.Float64bits(want.CapUL) || got != want {
				t.Fatalf("tick %d lane %d (dist %.4f mph %.1f road %v):\n StepInto    %+v\n unmemoized  %+v",
					tick, i, dist, mph, road, got, want)
			}
			df := dist / ref[i].Band.RangeKm
			switch {
			case s0 <= sinrMinDB:
				lowSkips++
			case s0-34 >= sinrMaxDB:
				highSkips++
			case df <= 1 && s0-26*(df*df) >= sinrMaxDB:
				boundSkips++
			}
		}
	}
	if lowSkips == 0 || highSkips == 0 || boundSkips == 0 {
		t.Fatalf("shortcuts not exercised: %d low-rail, %d high-rail and %d 26x²-bound skips", lowSkips, highSkips, boundSkips)
	}
}

// TestLinkStepIntoNeedMask steps, for every need mask, twin links through
// StepInto with that mask and with NeedAll over the same envelope, and
// requires every field the mask demands — and every field a step always
// writes — to be bit-identical to the all-bits step on every tick. Each
// masked run then ends with ticks on which both twins demand everything
// and must agree on every field: a mask that skipped or added a draw
// would leave its twin's streams elsewhere and show there.
func TestLinkStepIntoNeedMask(t *testing.T) {
	const lanes, ticks, tail = 9, 400, 40
	const dt = 0.5
	roads := []geo.RoadClass{geo.RoadCity, geo.RoadSuburban, geo.RoadHighway}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for need := Need(0); need <= NeedAll; need++ {
		masked := twinLinks(42, lanes)
		full := twinLinks(42, lanes)
		meta := sim.NewRNG(1234).Stream("geometry")
		var ccDL, ccUL int // ticks with secondary carriers in each direction
		for tick := 0; tick < ticks+tail; tick++ {
			road := roads[meta.Intn(len(roads))]
			mph := meta.Uniform(0, 85)
			m := need
			if tick >= ticks {
				m = NeedAll
			}
			for i := 0; i < lanes; i++ {
				dist := meta.Uniform(0.05, 6)
				var got, want LinkState
				masked[i].StepInto(&got, dt, dist, mph, road, m)
				full[i].StepInto(&want, dt, dist, mph, road, NeedAll)
				ok := got.Tech == want.Tech && same(got.RSRPdBm, want.RSRPdBm) &&
					got.Blocked == want.Blocked && got.CCDown == want.CCDown && got.CCUp == want.CCUp
				if m&NeedKPI != 0 {
					ok = ok && same(got.SINRdB, want.SINRdB) && got.MCS == want.MCS && same(got.BLER, want.BLER)
				}
				if m&NeedDL != 0 {
					ok = ok && same(got.CapDL, want.CapDL)
				}
				if m&NeedUL != 0 {
					ok = ok && same(got.CapUL, want.CapUL)
				}
				if !ok {
					t.Fatalf("need %03b tick %d lane %d (step need %03b):\n masked %+v\n full   %+v",
						need, tick, i, m, got, want)
				}
				if want.CCDown > 1 {
					ccDL++
				}
				if want.CCUp > 1 {
					ccUL++
				}
			}
		}
		if ccDL == 0 || ccUL == 0 {
			t.Fatalf("need %03b: secondary-carrier draws not exercised (%d DL, %d UL ticks)", need, ccDL, ccUL)
		}
	}
}

// clampRef is clampedSINR without its shortcuts: clamp(s0 - pen), written
// as clampedSINR writes the clamp, so a NaN keeps its payload.
func clampRef(s0, distFrac float64) float64 {
	sinr := s0 - interferencePenaltyDB(distFrac)
	if sinr > sinrMaxDB {
		sinr = sinrMaxDB
	}
	if sinr < sinrMinDB {
		sinr = sinrMinDB
	}
	return sinr
}

// TestClampedSINRExact sweeps clampedSINR across its rail thresholds
// against the unshortened clamp(s0 - pen), bit for bit: s0 stepped finely
// around sinrMin and sinrMax+34 and one ulp either side of each, against
// the full range of the interference penalty; and s0 at and around the
// high-rail bound 28 + 26x² for x near 0, near 1 and just past 1, where
// the bound stops applying. Driving geometry rarely pairs a strong signal
// with a far cell, so only this direct sweep pins the thresholds
// themselves.
func TestClampedSINRExact(t *testing.T) {
	check := func(s0, df float64) {
		t.Helper()
		if got, want := clampedSINR(s0, df), clampRef(s0, df); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("clampedSINR(%v, %v) = %v, want %v", s0, df, got, want)
		}
	}
	var s0s []float64
	for _, edge := range []float64{sinrMinDB, sinrMaxDB + 34} {
		for d := -40.0; d <= 40; d += 0.25 {
			s0s = append(s0s, edge+d)
		}
		s0s = append(s0s, math.Nextafter(edge, math.Inf(-1)), edge, math.Nextafter(edge, math.Inf(1)))
	}
	fracs := []float64{0, math.Copysign(0, -1), 5e-324, 1e-200, 1e-101, 1e-100, 1e-50, 1e-8,
		0.5, 0.999, math.Nextafter(1, 0), 1, math.Nextafter(1, 2), 1.0001, 1.01, 1.1297, 1.13, 2}
	for f := 0.0; f < 1.2; f += 0.01 {
		fracs = append(fracs, f)
	}
	for _, s0 := range s0s {
		for _, df := range fracs {
			check(s0, df)
		}
	}
	// Around the bound itself: s0 within a few ulps, and within a few
	// thousandths of a dB, of the s0 where fl(s0 - fl(26·fl(x·x))) reaches
	// sinrMax.
	var decided int
	for _, df := range fracs {
		edge := sinrMaxDB + float64(26*float64(df*df))
		for _, s0 := range []float64{edge - 1e-3, edge - 1e-9, edge + 1e-9, edge + 1e-3} {
			check(s0, df)
		}
		s0 := edge
		for i := 0; i < 8; i++ {
			s0 = math.Nextafter(s0, math.Inf(-1))
		}
		for i := 0; i < 16; i++ {
			check(s0, df)
			if df >= 0 && df <= 1 && s0-float64(26*float64(df*df)) >= sinrMaxDB && s0-34 < sinrMaxDB {
				decided++
			}
			s0 = math.Nextafter(s0, math.Inf(1))
		}
	}
	// Random x in [0, 1.02] with s0 within a few hundred ulps of the bound.
	rng := sim.NewRNG(7).Stream("clamp-bound")
	for i := 0; i < 200000; i++ {
		df := rng.Uniform(0, 1.02)
		s0 := sinrMaxDB + float64(26*float64(df*df)) + float64(rng.Intn(401)-200)*1e-14
		check(s0, df)
	}
	if decided == 0 {
		t.Fatal("the 26x² bound never decided a rail")
	}
}

// FuzzClampedSINR compares clampedSINR bit for bit with the unshortened
// clamp(s0 - interferencePenaltyDB(x)) on arbitrary inputs with a non-NaN
// x: a NaN x has no penalty range for the rails to rest on, and no caller
// makes one (x is a finite distance over a cell range). The seeds sit on
// the high-rail bound near x = 0, near x = 1 and just past it.
func FuzzClampedSINR(f *testing.F) {
	for _, df := range []float64{0, 1e-101, 0.3, math.Nextafter(1, 0), 1, math.Nextafter(1, 2), 1.05, 1.13} {
		f.Add(sinrMaxDB+float64(26*float64(df*df)), df)
	}
	f.Add(sinrMinDB, 0.5)
	f.Add(sinrMaxDB+34, 1.2)
	f.Add(math.NaN(), 0.5)
	f.Add(40.0, math.Inf(1))
	f.Fuzz(func(t *testing.T, s0, df float64) {
		if df != df {
			t.Skip("NaN distance fraction")
		}
		if got, want := clampedSINR(s0, df), clampRef(s0, df); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("clampedSINR(%v, %v) = %v (%#x), want %v (%#x)", s0, df, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}

// TestLinkRailMemos pins the package-variable rail memos against the
// functions they cache: a memo that drifted from MCSForSINR or the BLER
// logistic would silently break bit-identity at the clamp rails.
func TestLinkRailMemos(t *testing.T) {
	if mcsRailLo != MCSForSINR(sinrMinDB) || mcsRailHi != MCSForSINR(sinrMaxDB) {
		t.Fatalf("MCS rail memos diverge from MCSForSINR: %d/%d", mcsRailLo, mcsRailHi)
	}
	for _, mph := range []float64{0, 17.5, 55, 85} {
		for _, rail := range []float64{sinrMinDB, sinrMaxDB} {
			e := blerExpLo
			if rail == sinrMaxDB {
				e = blerExpHi
			}
			got := blerFromExp(e, mph)
			want := 0.02 + 0.35/(1+math.Exp((rail-3.0)/2.5)) + 0.0009*mph
			if want > 0.5 {
				want = 0.5
			}
			if math.Float64bits(got) != math.Float64bits(want) || got != BLER(rail, mph) {
				t.Fatalf("BLER memo at rail %v mph %v: %v != %v", rail, mph, got, want)
			}
		}
	}
}
