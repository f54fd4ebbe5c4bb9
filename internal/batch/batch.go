// Package batch is the per-lane tick core of the campaign's test phases. A
// Lane packs one phone's state for one test — the UE and latency-model
// bindings, the phase parameters, the evolving per-tick snapshot, the KPI
// accumulators, and the buffered outputs (KPI rows, handover records, RTT
// pings, the bulk-transfer runner and the record staging bank) — and
// Lane.Advance steps it one tick along the drive.
//
// Both campaign engines run every phone through exactly this code: the
// production per-phone timeline engine and the scalar fan-out oracle differ
// in how they schedule phones onto goroutines and in which radio outputs a
// tick computes — the oracle demands every output on every tick, the
// production engine only those the test reads — never in a draw.
// Per-phone RNG streams are label-derived and disjoint, so scheduling
// cannot move a single draw either, and the campaign's differential
// harness asserts byte-identical output between the two.
package batch

import (
	"time"

	"wheels/internal/dataset"
	"wheels/internal/geo"
	"wheels/internal/radio"
	"wheels/internal/ran"
	"wheels/internal/servers"
	"wheels/internal/sim"
	"wheels/internal/transport"
)

// Row is one 500 ms cross-layer KPI accumulation — the XCAL row that gets
// joined with the application-layer throughput sample.
type Row struct {
	T          float64
	Tech       radio.Tech
	RSRP, SINR float64 // interval means
	BLER       float64
	MCS        int // last in interval
	CCDL, CCUL int
	MPH, Km    float64
	HOs        int
	Outage     bool
}

// Ping is one successful RTT probe, with the path state it was taken at.
type Ping struct {
	T, Ms   float64
	Tech    radio.Tech
	MPH, Km float64
	Zone    geo.Timezone
}

// secs converts simulation seconds to a time.Duration.
func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// Lane is one phone's state for one test phase: the UE and latency-model
// bindings, the phase parameters, the evolving per-tick snapshot, the KPI
// accumulators, and the buffered outputs (KPI rows, handover records, RTT
// pings). The campaign's per-phone test adapter embeds a single Lane and
// recycles it from test to test.
type Lane struct {
	// Identity, bound once per campaign.
	Op  radio.Operator
	UE  *ran.UE // nil for static (pinned-link) lanes
	Lat *transport.LatencyModel

	// Per-phase parameters.
	TestID  int
	Profile ran.Traffic
	Dir     radio.Direction
	Server  servers.Server

	// Evolving per-tick state.
	T     float64
	Last  ran.Snapshot
	LastS geo.Sample

	// Buffered phase outputs. Rows holds the KPI rows of ticks that demand
	// radio.NeedKPI, which only bulk tests read.
	Rows   []Row
	HORecs []dataset.HandoverRecord
	Pings  []Ping
	Bulk   transport.BulkRunner

	// Bank stages the phase's dataset records for batched sink dispatch.
	// It rides on the lane so every phone's adapter gets its own scratch.
	Bank EmitBank

	// 500 ms KPI accumulation window.
	accDur  float64
	accRSRP float64
	accSINR float64
	accBLER float64
	accHOs  int

	// intervals counts the phase's closed 500 ms intervals and highSpeed
	// those that ended on 5G mid/mmWave in service. Every lane counts them,
	// whether or not it records KPI rows: they are HighSpeedFrac's inputs.
	intervals, highSpeed int

	// Wire-RTT memo: the propagation delay to the test server depends only
	// on the vehicle coordinate, which changes once per trace sample (the
	// extrapolation between samples moves Km, not Pos), so the Haversine is
	// recomputed only when the coordinate actually moves.
	wirePos  geo.LatLon
	wireMs   float64
	wireInit bool
}

// Bind attaches the lane to its phone at the start of each test.
func (ln *Lane) Bind(op radio.Operator, ue *ran.UE, lat *transport.LatencyModel) {
	ln.Op, ln.UE, ln.Lat = op, ue, lat
}

// StartPhase rewinds the lane for a new test starting at time t, keeping
// the backing arrays of the output buffers. The caller is responsible for
// draining stale UE handover events first (the engines do it at their own
// phase-setup points so the drop stays visible at the call site).
func (ln *Lane) StartPhase(id int, t float64, profile ran.Traffic, dir radio.Direction, server servers.Server) {
	ln.TestID = id
	ln.Profile, ln.Dir, ln.Server = profile, dir, server
	ln.T = t
	ln.Last, ln.LastS = ran.Snapshot{}, geo.Sample{}
	ln.Rows, ln.HORecs, ln.Pings = ln.Rows[:0], ln.HORecs[:0], ln.Pings[:0]
	ln.accDur, ln.accRSRP, ln.accSINR, ln.accBLER, ln.accHOs = 0, 0, 0, 0, 0
	ln.intervals, ln.highSpeed = 0, 0
	ln.wireInit = false
}

// Recycle returns a zero lane that keeps the backing arrays of the output
// buffers and of the staging bank, so a reused adapter's lane stops
// allocating once the buffers reach a test's working size.
func (ln *Lane) Recycle() Lane {
	return Lane{
		Rows:   ln.Rows[:0],
		HORecs: ln.HORecs[:0],
		Pings:  ln.Pings[:0],
		Bulk:   ln.Bulk.Recycle(),
		Bank:   EmitBank{Thr: ln.Bank.Thr[:0], RTT: ln.Bank.RTT[:0]},
	}
}

// Advance moves the lane forward dt seconds with the vehicle at sample s
// (which must be the trace position for time ln.T+dt) and returns the
// current path condition in both directions. The radio snapshot lands
// directly in ln.Last — no per-tick state is copied up the call chain.
// need names the radio outputs the caller reads this tick (see
// radio.Need): a capacity outside it is returned stale, and only ticks
// that demand radio.NeedKPI accumulate and record KPI rows.
func (ln *Lane) Advance(dt float64, s *geo.Sample, need radio.Need) (capDL, capUL, rttMs float64, outage bool) {
	ln.T += dt
	ln.UE.StepInto(&ln.Last, ln.T, dt, s.Km, s.MPH, s.Road, s.Zone, ln.Profile, need)
	ln.drainHandovers()
	return ln.finish(dt, s, need)
}

// drainHandovers consumes the UE's pending handover events into the lane's
// record buffer. Advance calls it once per tick.
func (ln *Lane) drainHandovers() {
	for _, ev := range ln.UE.TakeHandovers() {
		ln.accHOs++
		ln.HORecs = append(ln.HORecs, dataset.HandoverRecord{
			TestID: ln.TestID, Op: ln.Op, TimeUTC: sim.TripStart.UTC().Add(secs(ev.T)),
			DurSec: ev.DurSec, FromTech: ev.From.Tech, ToTech: ev.To.Tech,
			FromCell: ev.From.ID(), ToCell: ev.To.ID(), Dir: ln.Dir,
		})
	}
}

// staticDistKm is the UE-to-cell distance of the static tests: the team
// measured facing a chosen base station from close range.
const staticDistKm = 0.04

// AdvanceStatic is Advance for a static test: the lane is pinned to a
// fixed position and a forced-technology link instead of a moving UE.
func (ln *Lane) AdvanceStatic(dt float64, link *radio.Link, tech radio.Tech, km float64, pos geo.LatLon, zone geo.Timezone, need radio.Need) (capDL, capUL, rttMs float64, outage bool) {
	ln.T += dt
	ln.Last = ran.Snapshot{T: ln.T, Tech: tech}
	link.StepInto(&ln.Last.Link, dt, staticDistKm, 0, geo.RoadCity, need)
	ln.Last.CapDL, ln.Last.CapUL = ln.Last.Link.CapDL, ln.Last.Link.CapUL
	s := geo.Sample{T: ln.T, Km: km, Pos: pos, MPH: 0, Road: geo.RoadCity, Zone: zone}
	return ln.finish(dt, &s, need)
}

// finish closes the 500 ms interval when it is due, counting it for
// HighSpeedFrac, accumulates and records the interval's KPI row when the
// tick demands radio.NeedKPI, and composes the end-to-end path state for
// the step, reading the radio snapshot already landed in ln.Last.
func (ln *Lane) finish(dt float64, s *geo.Sample, need radio.Need) (capDL, capUL, rttMs float64, outage bool) {
	snap := &ln.Last
	ln.LastS = *s

	kpi := need&radio.NeedKPI != 0
	ln.accDur += dt
	if kpi {
		ln.accRSRP += snap.Link.RSRPdBm * dt
		ln.accSINR += snap.Link.SINRdB * dt
		ln.accBLER += snap.Link.BLER * dt
	}
	if ln.accDur >= transport.SampleIntervalSec-1e-9 {
		ln.intervals++
		if snap.Tech.IsHighSpeed() && !snap.Outage {
			ln.highSpeed++
		}
		if kpi {
			ln.Rows = append(ln.Rows, Row{
				T:    ln.T,
				Tech: snap.Tech,
				RSRP: ln.accRSRP / ln.accDur,
				SINR: ln.accSINR / ln.accDur,
				BLER: ln.accBLER / ln.accDur,
				MCS:  snap.Link.MCS,
				CCDL: snap.Link.CCDown, CCUL: snap.Link.CCUp,
				MPH: s.MPH, Km: s.Km,
				HOs:    ln.accHOs,
				Outage: snap.Outage,
			})
		}
		ln.accDur, ln.accRSRP, ln.accSINR, ln.accBLER, ln.accHOs = 0, 0, 0, 0, 0
	}

	if !ln.wireInit || s.Pos != ln.wirePos {
		ln.wireInit = true
		ln.wirePos = s.Pos
		ln.wireMs = servers.PropagationRTTms(s.Pos, ln.Server)
	}
	rttMs = ln.Lat.RTTms(dt, snap.Tech, ln.wireMs, s.MPH)
	return snap.CapDL, snap.CapUL, rttMs, snap.Outage
}

// HighSpeedFrac returns the fraction of the phase's 500 ms intervals that
// ended on 5G mid/mmWave in service.
func (ln *Lane) HighSpeedFrac() float64 {
	if ln.intervals == 0 {
		return 0
	}
	return float64(ln.highSpeed) / float64(ln.intervals)
}

// HOCount returns the number of handovers recorded during the phase.
func (ln *Lane) HOCount() int { return len(ln.HORecs) }
