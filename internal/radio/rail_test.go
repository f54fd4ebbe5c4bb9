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
// LinkStates. It also requires both s0 shortcuts to have fired, so the
// equality covers them rather than only the plain path.
func TestLinkStepIntoMatchesUnmemoized(t *testing.T) {
	const lanes, ticks = 9, 400
	fast := twinLinks(42, lanes)
	ref := twinLinks(42, lanes)
	meta := sim.NewRNG(1234).Stream("geometry")
	roads := []geo.RoadClass{geo.RoadCity, geo.RoadSuburban, geo.RoadHighway}
	const dt = 0.02
	var lowSkips, highSkips int
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
			switch {
			case s0 <= sinrMinDB:
				lowSkips++
			case s0-34 >= sinrMaxDB:
				highSkips++
			}
		}
	}
	if lowSkips == 0 || highSkips == 0 {
		t.Fatalf("shortcuts not exercised: %d low-rail and %d high-rail skips", lowSkips, highSkips)
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

// TestClampedSINRExact sweeps clampedSINR across both rail thresholds —
// s0 stepped finely around sinrMin and sinrMax+34 and one ulp either side
// of each — against the full range of the interference penalty, and
// requires the bits of the unshortcut clamp(s0 - pen) everywhere. Driving
// geometry rarely pairs a strong signal with a far cell, so only this
// direct sweep pins the thresholds themselves.
func TestClampedSINRExact(t *testing.T) {
	var s0s []float64
	for _, edge := range []float64{sinrMinDB, sinrMaxDB + 34} {
		for d := -40.0; d <= 40; d += 0.25 {
			s0s = append(s0s, edge+d)
		}
		s0s = append(s0s, math.Nextafter(edge, math.Inf(-1)), edge, math.Nextafter(edge, math.Inf(1)))
	}
	fracs := []float64{0, 1e-101, 1e-50, 1.1297, 1.13, 2}
	for f := 0.0; f < 1.2; f += 0.01 {
		fracs = append(fracs, f)
	}
	for _, s0 := range s0s {
		for _, df := range fracs {
			want := max(min(s0-interferencePenaltyDB(df), sinrMaxDB), sinrMinDB)
			if got := clampedSINR(s0, df); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("clampedSINR(%v, %v) = %v, want %v", s0, df, got, want)
			}
		}
	}
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
