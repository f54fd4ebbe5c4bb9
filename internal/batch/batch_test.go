package batch

import (
	"testing"

	"wheels/internal/dataset"
	"wheels/internal/deploy"
	"wheels/internal/geo"
	"wheels/internal/radio"
	"wheels/internal/ran"
	"wheels/internal/servers"
	"wheels/internal/sim"
	"wheels/internal/transport"
)

// testRig is three lanes (one per operator, the paper's testbed shape)
// over a synthetic straight-line drive at 60 mph. The synthetic where
// avoids the campaign's trace machinery so the tests pin down this package
// alone.
type testRig struct {
	lanes []Lane
	where func(t float64) geo.Sample
}

func newRig(tb testing.TB, seed int64) *testRig {
	tb.Helper()
	route := geo.NewRoute()
	rng := sim.NewRNG(seed)
	r := &testRig{lanes: make([]Lane, len(radio.Operators()))}
	cur := route.Cursor()
	for i, op := range radio.Operators() {
		dep := deploy.New(route, op, rng.Stream("deploy-"+op.String()))
		ue := ran.NewUE(rng.Stream("ue-"+op.String()), dep)
		lat := transport.NewLatencyModel(rng.Stream("lat-"+op.String()), op)
		r.lanes[i].Bind(op, ue, lat)
	}
	r.where = func(t float64) geo.Sample {
		km := 60 * geo.KmPerMile / 3600 * t
		return geo.Sample{
			T: t, Km: km, Pos: cur.PosAt(km), MPH: 60,
			Road: cur.RoadClassAt(km), Zone: cur.TimezoneAt(km),
		}
	}
	return r
}

// startPhase puts every lane at the top of a phase at time t.
func (r *testRig) startPhase(id int, t float64, profile ran.Traffic, dir radio.Direction) {
	s := r.where(t)
	for i := range r.lanes {
		ln := &r.lanes[i]
		ln.UE.TakeHandovers()
		ln.StartPhase(id+i, t, profile, dir, servers.Server{Kind: servers.Cloud, Pos: s.Pos})
	}
}

// runBulk drives every lane through a durSec bulk transfer and stages its
// throughput rows in the lane's bank, as the campaign's emit half does.
func (r *testRig) runBulk(durSec float64) {
	for j := range r.lanes {
		ln := &r.lanes[j]
		ln.Bulk.Reset(durSec)
		for i := 0; float64(i)*transport.TickSec < durSec; i++ {
			s := r.where(ln.T + transport.TickSec)
			dl, ul, rtt, outage := ln.Advance(transport.TickSec, &s, radio.NeedKPI|radio.NeedCap(ln.Dir))
			capBps := dl
			if ln.Dir == radio.Uplink {
				capBps = ul
			}
			ln.Bulk.Tick(i, transport.PathState{CapBps: capBps, BaseRTTms: rtt, Outage: outage})
		}
		ln.Bank.Thr = ln.Bank.Thr[:0]
		for _, row := range ln.Rows {
			ln.Bank.Thr = append(ln.Bank.Thr, dataset.ThroughputSample{TestID: ln.TestID, Km: row.Km})
		}
	}
}

// runRTT drives every lane through a durSec ping test, one probe per
// intervalSec, and stages its RTT rows in the lane's bank.
func (r *testRig) runRTT(durSec, intervalSec float64) {
	for j := range r.lanes {
		ln := &r.lanes[j]
		for tt := 0.0; tt < durSec; tt += intervalSec {
			s := r.where(ln.T + intervalSec)
			if _, _, rtt, outage := ln.Advance(intervalSec, &s, 0); !outage {
				ln.Pings = append(ln.Pings, Ping{T: ln.T, Ms: rtt, Tech: ln.Last.Tech})
			}
		}
		ln.Bank.RTT = ln.Bank.RTT[:0]
		for _, p := range ln.Pings {
			ln.Bank.RTT = append(ln.Bank.RTT, dataset.RTTSample{TestID: ln.TestID, Ms: p.Ms})
		}
	}
}

// TestStartPhaseClearsLane runs a full bulk phase to populate every lane
// buffer and accumulator, then rewinds with StartPhase and checks that no
// state from the previous phase leaks into the next — the property that
// makes lane reuse across tests (and across fleet seeds) sound.
func TestStartPhaseClearsLane(t *testing.T) {
	r := newRig(t, 23)
	r.startPhase(1, 30, ran.BacklogDL, radio.Downlink)
	r.runBulk(20)
	for i := range r.lanes {
		if len(r.lanes[i].Rows) == 0 {
			t.Fatalf("lane %d: phase produced no KPI rows; test setup is wrong", i)
		}
	}

	r.startPhase(10, 120, ran.BacklogUL, radio.Uplink)
	for i := range r.lanes {
		ln := &r.lanes[i]
		if len(ln.Rows) != 0 || len(ln.HORecs) != 0 || len(ln.Pings) != 0 {
			t.Errorf("lane %d: buffers not cleared: %d rows, %d handovers, %d pings",
				i, len(ln.Rows), len(ln.HORecs), len(ln.Pings))
		}
		if ln.T != 120 {
			t.Errorf("lane %d: T = %v, want 120", i, ln.T)
		}
		if ln.Last != (ran.Snapshot{}) || ln.LastS != (geo.Sample{}) {
			t.Errorf("lane %d: Last/LastS not zeroed", i)
		}
		if ln.accDur != 0 || ln.accRSRP != 0 || ln.accSINR != 0 || ln.accBLER != 0 || ln.accHOs != 0 {
			t.Errorf("lane %d: KPI accumulators not zeroed: dur=%v rsrp=%v sinr=%v bler=%v hos=%d",
				i, ln.accDur, ln.accRSRP, ln.accSINR, ln.accBLER, ln.accHOs)
		}
		if ln.wireInit {
			t.Errorf("lane %d: wire-RTT memo not invalidated", i)
		}
		if ln.Dir != radio.Uplink || ln.TestID != 10+i {
			t.Errorf("lane %d: phase parameters not applied: dir=%v id=%d", i, ln.Dir, ln.TestID)
		}
	}
}

// TestRecycleKeepsBuffersDropsState checks the reused-adapter contract:
// Recycle returns a lane with zeroed identity and phase state but with the
// grown backing arrays — the output buffers and the staging bank — still
// attached, so a recycled lane neither leaks pointers nor re-allocates its
// way back to working size.
func TestRecycleKeepsBuffersDropsState(t *testing.T) {
	r := newRig(t, 23)
	r.startPhase(1, 30, ran.BacklogDL, radio.Downlink)
	r.runBulk(20)
	r.runRTT(10, 0.2)

	ln := &r.lanes[0]
	rowCap, hoCap, pingCap := cap(ln.Rows), cap(ln.HORecs), cap(ln.Pings)
	thrCap, rttCap := cap(ln.Bank.Thr), cap(ln.Bank.RTT)
	if rowCap == 0 || pingCap == 0 || thrCap == 0 || rttCap == 0 {
		t.Fatal("phase produced no rows, pings or staged records; test setup is wrong")
	}
	rc := ln.Recycle()
	if rc.UE != nil || rc.Lat != nil || rc.Op != 0 || rc.T != 0 || rc.TestID != 0 {
		t.Errorf("Recycle kept identity/phase state: %+v", rc)
	}
	if len(rc.Rows) != 0 || len(rc.HORecs) != 0 || len(rc.Pings) != 0 ||
		len(rc.Bank.Thr) != 0 || len(rc.Bank.RTT) != 0 {
		t.Errorf("Recycle kept buffer contents: %d rows, %d handovers, %d pings, %d/%d staged",
			len(rc.Rows), len(rc.HORecs), len(rc.Pings), len(rc.Bank.Thr), len(rc.Bank.RTT))
	}
	if cap(rc.Rows) != rowCap || cap(rc.HORecs) != hoCap || cap(rc.Pings) != pingCap {
		t.Errorf("Recycle dropped backing arrays: row cap %d→%d, handover cap %d→%d, ping cap %d→%d",
			rowCap, cap(rc.Rows), hoCap, cap(rc.HORecs), pingCap, cap(rc.Pings))
	}
	if cap(rc.Bank.Thr) != thrCap || cap(rc.Bank.RTT) != rttCap {
		t.Errorf("Recycle dropped the staging bank: thr cap %d→%d, rtt cap %d→%d",
			thrCap, cap(rc.Bank.Thr), rttCap, cap(rc.Bank.RTT))
	}
}

// TestLaneSteadyStateAllocFree drives the lanes through warm-up phases
// until every buffer reaches its working size, then requires that further
// bulk and RTT phases allocate nothing at all: the per-tick hot loop
// touches only pre-grown lane state.
func TestLaneSteadyStateAllocFree(t *testing.T) {
	r := newRig(t, 23)
	// Re-drive the same route window each run: the per-run work is then
	// constant, and the UE's unique-cell set saturates during warm-up so
	// its map stops growing.
	runOnce := func() {
		r.startPhase(1, 30, ran.BacklogDL, radio.Downlink)
		r.runBulk(20)
		r.startPhase(4, 55, ran.RTTProbe, radio.Downlink)
		r.runRTT(10, 0.2)
	}
	for i := 0; i < 5; i++ { // grow buffers and the camped-cell set to working size
		runOnce()
	}
	if avg := testing.AllocsPerRun(5, runOnce); avg != 0 {
		t.Errorf("steady-state phase allocates %.1f times per run, want 0", avg)
	}
}
