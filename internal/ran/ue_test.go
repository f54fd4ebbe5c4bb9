package ran

import (
	"sort"
	"testing"

	"wheels/internal/deploy"
	"wheels/internal/geo"
	"wheels/internal/radio"
)

// Vertical reports whether the handover crossed technologies.
func (h HandoverEvent) Vertical() bool { return h.From.Tech != h.To.Tech }

// Kind classifies the handover the way Fig. 12 does: 4G->4G, 4G->5G,
// 5G->4G, or 5G->5G.
func (h HandoverEvent) Kind() string {
	g := func(t radio.Tech) string {
		if t.Is5G() {
			return "5G"
		}
		return "4G"
	}
	return g(h.From.Tech) + "->" + g(h.To.Tech)
}

// ServingTech returns the current serving technology and whether the UE is
// attached at all.
func (u *UE) ServingTech() (radio.Tech, bool) { return u.tech, u.attached }

// Step advances the UE like StepInto with radio.NeedAll and returns the
// full radio snapshot.
func (u *UE) Step(t, dt, km, mph float64, road geo.RoadClass, zone geo.Timezone, tr Traffic) Snapshot {
	var snap Snapshot
	u.StepInto(&snap, t, dt, km, mph, road, zone, tr, radio.NeedAll)
	return snap
}

func testSetup(t *testing.T, op radio.Operator) (*geo.Route, *deploy.Deployment, *UE) {
	t.Helper()
	return setupFor(op)
}

// driveWithProfile steps a UE along the route at 60 mph and returns the
// fraction of steps served by each technology.
func driveWithProfile(route *geo.Route, ue *UE, tr Traffic, fromKm, toKm float64) map[radio.Tech]float64 {
	counts := map[radio.Tech]int{}
	total := 0
	const dt = 0.5
	kmPerStep := 60.0 * geo.KmPerMile / 3600 * dt
	tm := 0.0
	for km := fromKm; km < toKm; km += kmPerStep {
		snap := ue.Step(tm, dt, km, 60, route.RoadClassAt(km), route.TimezoneAt(km), tr)
		tm += dt
		if snap.Outage {
			continue
		}
		counts[snap.Tech]++
		total++
	}
	out := map[radio.Tech]float64{}
	for tech, n := range counts {
		out[tech] = float64(n) / float64(total)
	}
	return out
}

func TestATTIdleNever5G(t *testing.T) {
	route, _, ue := testSetup(t, radio.ATT)
	frac := driveWithProfile(route, ue, Idle, 0, route.LengthKm())
	for tech, f := range frac {
		if tech.Is5G() && f > 0 {
			t.Errorf("idle AT&T UE served by %v for %.3f of the route; Fig. 1d shows 4G only", tech, f)
		}
	}
}

func TestPassiveVsActiveDisparity(t *testing.T) {
	// Fig. 1: the handover-logger (idle) view shows far less 5G than the
	// XCAL view during backlogged tests, for every operator.
	for _, op := range radio.Operators() {
		route, _, idleUE := testSetup(t, op)
		_, _, dlUE := testSetup(t, op)
		idle := driveWithProfile(route, idleUE, Idle, 0, route.LengthKm())
		active := driveWithProfile(route, dlUE, BacklogDL, 0, route.LengthKm())
		idle5G := idle[radio.NRLow] + idle[radio.NRMid] + idle[radio.NRmmW]
		active5G := active[radio.NRLow] + active[radio.NRMid] + active[radio.NRmmW]
		if active5G < idle5G+0.1 {
			t.Errorf("%v: active 5G share %.2f not well above idle %.2f", op, active5G, idle5G)
		}
	}
}

func TestDownlinkElevatesMoreThanUplink(t *testing.T) {
	// Fig. 2b: high-speed 5G share is higher under backlogged DL than UL.
	for _, op := range radio.Operators() {
		route, _, dl := testSetup(t, op)
		_, _, ul := testSetup(t, op)
		d := driveWithProfile(route, dl, BacklogDL, 0, route.LengthKm())
		uu := driveWithProfile(route, ul, BacklogUL, 0, route.LengthKm())
		dHS := d[radio.NRMid] + d[radio.NRmmW]
		uHS := uu[radio.NRMid] + uu[radio.NRmmW]
		if dHS <= uHS {
			t.Errorf("%v: DL high-speed share %.3f not above UL %.3f", op, dHS, uHS)
		}
	}
}

func TestTMobile5GCoverageShare(t *testing.T) {
	// Fig. 2a ballpark: T-Mobile connects to 5G ~68% of miles under active
	// tests; Verizon and AT&T only ~18-22%.
	route, _, tm := testSetup(t, radio.TMobile)
	f := driveWithProfile(route, tm, BacklogDL, 0, route.LengthKm())
	tm5g := f[radio.NRLow] + f[radio.NRMid] + f[radio.NRmmW]
	if tm5g < 0.5 || tm5g > 0.85 {
		t.Errorf("T-Mobile active 5G share = %.2f, want around 0.68", tm5g)
	}
	for _, op := range []radio.Operator{radio.Verizon, radio.ATT} {
		route, _, ue := testSetup(t, op)
		f := driveWithProfile(route, ue, BacklogDL, 0, route.LengthKm())
		g := f[radio.NRLow] + f[radio.NRMid] + f[radio.NRmmW]
		if g < 0.08 || g > 0.40 {
			t.Errorf("%v active 5G share = %.2f, want around 0.18-0.22", op, g)
		}
		if g >= tm5g {
			t.Errorf("%v 5G share %.2f not below T-Mobile %.2f", op, g, tm5g)
		}
	}
}

func TestHandoverDurations(t *testing.T) {
	route, _, ue := testSetup(t, radio.TMobile)
	driveWithProfile(route, ue, BacklogDL, 0, route.LengthKm())
	evs := ue.TakeHandovers()
	if len(evs) < 100 {
		t.Fatalf("only %d handovers across the whole route; expected hundreds", len(evs))
	}
	durs := make([]float64, len(evs))
	for i, e := range evs {
		if e.DurSec <= 0 || e.DurSec > 3 {
			t.Fatalf("handover duration %.3f s out of sane range", e.DurSec)
		}
		durs[i] = e.DurSec * 1000
	}
	sort.Float64s(durs)
	med := durs[len(durs)/2]
	// Fig. 11b: T-Mobile DL median 76 ms.
	if med < 50 || med > 110 {
		t.Errorf("T-Mobile handover duration median = %.0f ms, want near 76", med)
	}
	p75 := durs[len(durs)*3/4]
	if p75 <= med {
		t.Errorf("75th percentile %.0f not above median %.0f", p75, med)
	}
}

func TestHandoverKinds(t *testing.T) {
	route, _, ue := testSetup(t, radio.Verizon)
	driveWithProfile(route, ue, BacklogDL, 0, route.LengthKm())
	kinds := map[string]int{}
	vertical := 0
	for _, e := range ue.TakeHandovers() {
		kinds[e.Kind()]++
		if e.Vertical() {
			vertical++
		}
	}
	for _, k := range []string{"4G->4G", "4G->5G", "5G->4G"} {
		if kinds[k] == 0 {
			t.Errorf("no %s handovers across the whole route", k)
		}
	}
	if vertical == 0 {
		t.Error("no vertical handovers recorded")
	}
}

func TestHandoverEventConsistency(t *testing.T) {
	route, _, ue := testSetup(t, radio.TMobile)
	driveWithProfile(route, ue, BacklogDL, 0, 500)
	for _, e := range ue.TakeHandovers() {
		if e.From.ID() == e.To.ID() {
			t.Errorf("handover at t=%.1f goes from a cell to itself (%s)", e.T, e.From.ID())
		}
		if e.Vertical() != (e.From.Tech != e.To.Tech) {
			t.Error("Vertical() inconsistent with cell technologies")
		}
	}
}

func TestCapacityZeroDuringHandover(t *testing.T) {
	route, _, ue := testSetup(t, radio.TMobile)
	const dt = 0.05
	kmPerStep := 60.0 * geo.KmPerMile / 3600 * dt
	tm := 0.0
	sawHO := false
	for km := 0.0; km < 300; km += kmPerStep {
		snap := ue.Step(tm, dt, km, 60, route.RoadClassAt(km), route.TimezoneAt(km), BacklogDL)
		tm += dt
		if snap.InHO {
			sawHO = true
			if snap.CapDL != 0 || snap.CapUL != 0 {
				t.Fatal("non-zero capacity during handover execution")
			}
		}
	}
	if !sawHO {
		t.Error("no in-handover step observed in 300 km at 50 ms resolution")
	}
}

func TestUniqueCellsAccumulate(t *testing.T) {
	route, _, ue := testSetup(t, radio.Verizon)
	cells := map[deploy.CellKey]bool{}
	const dt = 0.5
	kmPerStep := 60.0 * geo.KmPerMile / 3600 * dt
	tm := 0.0
	for km := 0.0; km < route.LengthKm(); km += kmPerStep {
		snap := ue.Step(tm, dt, km, 60, route.RoadClassAt(km), route.TimezoneAt(km), BacklogDL)
		tm += dt
		if !snap.Outage {
			cells[snap.Cell.Key()] = true
		}
	}
	n := len(cells)
	// Table 1: 3020 unique cells for Verizon over the full trip (all tests
	// and loggers combined); a single always-on UE should see the same
	// order of magnitude.
	if n < 800 || n > 8000 {
		t.Errorf("unique cells = %d, want on the order of a few thousand", n)
	}
}

func TestForcedHandoverOnCoverageLoss(t *testing.T) {
	route, dep, ue := testSetup(t, radio.TMobile)
	// Find a boundary where mid-band coverage ends.
	var boundary float64 = -1
	for km := 1.0; km < route.LengthKm()-1; km += 0.1 {
		if dep.HasTech(km, radio.NRMid) && !dep.HasTech(km+0.2, radio.NRMid) {
			boundary = km
			break
		}
	}
	if boundary < 0 {
		t.Skip("no mid-band coverage edge found")
	}
	// Force the UE onto mid-band just before the boundary by stepping with
	// a backlogged profile until it elevates.
	tm := 0.0
	for i := 0; i < 2000; i++ {
		snap := ue.Step(tm, 0.5, boundary-0.05, 30, route.RoadClassAt(boundary), route.TimezoneAt(boundary), BacklogDL)
		tm += 0.5
		if snap.Tech == radio.NRMid {
			break
		}
	}
	if tech, _ := ue.ServingTech(); tech != radio.NRMid {
		t.Skip("policy never elevated to mid-band at this spot")
	}
	ue.TakeHandovers()
	snap := ue.Step(tm, 0.5, boundary+0.3, 30, route.RoadClassAt(boundary+0.3), route.TimezoneAt(boundary+0.3), BacklogDL)
	if snap.Tech == radio.NRMid {
		t.Fatal("UE still on mid-band after driving past coverage edge")
	}
	evs := ue.TakeHandovers()
	if len(evs) == 0 || !evs[0].Vertical() {
		t.Error("coverage loss did not produce a vertical handover event")
	}
}

func TestOutageAndReattach(t *testing.T) {
	route, dep, ue := testSetup(t, radio.Verizon)
	// Find a dead zone, if the seed produced one.
	dead := -1.0
	for km := 0.0; km < route.LengthKm(); km += 0.1 {
		if dep.AvailMask(km) == 0 {
			dead = km
			break
		}
	}
	if dead < 0 {
		t.Skip("seed produced no dead zones")
	}
	snap := ue.Step(0, 0.5, dead, 60, route.RoadClassAt(dead), route.TimezoneAt(dead), BacklogDL)
	if !snap.Outage || snap.CapDL != 0 {
		t.Error("dead zone did not produce an outage snapshot")
	}
	// Find covered ground and confirm reattach.
	covered := 0.0
	for km := 0.0; km < route.LengthKm(); km += 0.1 {
		if dep.AvailMask(km) != 0 {
			covered = km
			break
		}
	}
	snap = ue.Step(1, 0.5, covered, 60, route.RoadClassAt(covered), route.TimezoneAt(covered), BacklogDL)
	if snap.Outage {
		t.Error("UE failed to reattach on covered ground")
	}
}

func TestUEDeterminism(t *testing.T) {
	route, _, a := testSetup(t, radio.ATT)
	_, _, b := testSetup(t, radio.ATT)
	fa := driveWithProfile(route, a, BacklogDL, 0, 400)
	fb := driveWithProfile(route, b, BacklogDL, 0, 400)
	for tech, v := range fa {
		if fb[tech] != v {
			t.Fatalf("identical UEs diverged: %v %v vs %v", tech, v, fb[tech])
		}
	}
}

func TestHandoversPerMileBallpark(t *testing.T) {
	// Fig. 11a: median handovers/mile during DL tests is 2-3; the rate
	// should be low single digits, not tens.
	route, _, ue := testSetup(t, radio.Verizon)
	driveWithProfile(route, ue, BacklogDL, 0, route.LengthKm())
	miles := route.LengthKm() / geo.KmPerMile
	rate := float64(len(ue.TakeHandovers())) / miles
	if rate < 0.5 || rate > 6 {
		t.Errorf("handover rate = %.2f per mile, want 0.5-6", rate)
	}
}
