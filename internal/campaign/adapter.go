package campaign

import (
	"wheels/internal/apps"
	"wheels/internal/batch"
	"wheels/internal/geo"
	"wheels/internal/radio"
	"wheels/internal/ran"
	"wheels/internal/transport"
)

// staticState pins an adapter to a fixed position and a forced technology,
// bypassing the elevation policy — the paper's static tests were performed
// facing a chosen mmWave (or mid-band) base station.
type staticState struct {
	link *radio.Link
	tech radio.Tech
	km   float64
	pos  geo.LatLon
	zone geo.Timezone
}

// adapter drives one phone through one test: it advances the embedded
// batch.Lane (the per-tick core every engine runs) tick by tick, resolving
// the vehicle position from its own trace cursor. Each phone owns one
// adapter and reuses it from test to test, so the lane's row, handover,
// ping, sample and staging buffers grow to a test's working size once per
// campaign and are then reused; nothing is pooled past the campaign.
type adapter struct {
	batch.Lane

	c      *Campaign
	ph     *phone
	static *staticState

	// trCur memoizes the trace position: a test's clock only moves forward,
	// so each tick's position lookup is O(1). Held by value, so the adapter
	// carries no heap cursor of its own.
	trCur geo.TraceCursor
}

// newAdapter starts a test at time t on the phone's adapter with a
// pre-allocated test id (ids come from the schedule, so they stay
// deterministic). For driving tests the server is selected at test start
// from the phone's position (as the test harness did); static tests pass
// their own state.
func (c *Campaign) newAdapter(id int, ph *phone, t float64, profile ran.Traffic, dir radio.Direction, static *staticState) *adapter {
	a := &ph.a
	*a = adapter{Lane: a.Lane.Recycle(), c: c, ph: ph, static: static}
	ue := ph.ue
	if static != nil {
		ue = nil // the lane steps the pinned link, not the driving UE
		a.Bind(ph.op, ue, ph.lat)
		a.StartPhase(id, t, profile, dir, c.Reg.Select(ph.op, static.pos, static.zone))
	} else {
		a.Bind(ph.op, ue, ph.lat)
		a.trCur.ResetAt(c.Trace, t)
		s := c.whereCur(&a.trCur, t)
		a.StartPhase(id, t, profile, dir, c.Reg.Select(ph.op, s.Pos, s.Zone))
	}
	ph.ue.TakeHandovers() // drop events from between tests
	return a
}

// advance moves the adapter forward dt seconds and returns the current
// path condition in both directions.
func (a *adapter) advance(dt float64) (capDL, capUL, rttMs float64, outage bool) {
	if a.static != nil {
		return a.AdvanceStatic(dt, a.static.link, a.static.tech, a.static.km, a.static.pos, a.static.zone)
	}
	s := a.c.whereCur(&a.trCur, a.T+dt)
	return a.Advance(dt, &s)
}

// pathAdapter exposes the adapter as a transport.Path in one direction.
type pathAdapter struct{ a *adapter }

func (p pathAdapter) Step(dt float64) transport.PathState {
	dl, ul, rtt, outage := p.a.advance(dt)
	cap := dl
	if p.a.Dir == radio.Uplink {
		cap = ul
	}
	return transport.PathState{CapBps: cap, BaseRTTms: rtt, Outage: outage}
}

// netAdapter exposes the adapter as an apps.Net (both directions + RTT).
type netAdapter struct{ a *adapter }

func (n netAdapter) Step(dt float64) apps.NetState {
	dl, ul, rtt, outage := n.a.advance(dt)
	return apps.NetState{CapDLbps: dl, CapULbps: ul, RTTms: rtt, Outage: outage}
}
