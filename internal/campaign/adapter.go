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
	// pos is the vehicle position of the current tick, memoized per trace
	// sample.
	pos posMemo

	// need is the radio need every tick of the test makes at least: the
	// test's standing demand, ORed with radio.NeedAll under the scalar
	// oracle (see Campaign.floorNeed).
	need radio.Need
}

// posMode names the branch of Campaign.whereAt a posMemo holds.
type posMode uint8

const (
	posStale  posMode = iota // nothing loaded
	posBefore                // t precedes the trace: its first sample
	posAt                    // the cursor's sample as recorded
	posExtrap                // the cursor's sample, Km extrapolated to t
	posNext                  // inside an overnight gap: the next day's first sample
)

// posMemo is Campaign.whereAt memoized per trace sample. The vehicle moves
// to a new trace sample about once per simulated second — some fifty ticks
// of a bulk test, two hundred of an app — so the memo reloads the sample
// only when the cursor index or whereAt's branch changes, and otherwise
// moves only Km, by whereAt's own expression with its rate factor computed
// once per sample. The result is whereAt's, bit for bit.
type posMemo struct {
	mode posMode
	idx  int        // cursor index s was loaded from
	base float64    // the trace sample's Km
	rate float64    // km per second at the sample's speed
	s    geo.Sample // the position at the last call
}

// at returns whereAt(idx, t) over samples, where idx is the cursor index
// for t. The sample stays valid until the next call.
func (m *posMemo) at(samples []geo.Sample, idx int, t float64) *geo.Sample {
	if idx < 0 {
		if m.mode != posBefore {
			m.mode, m.s = posBefore, samples[0]
		}
		return &m.s
	}
	d := t - samples[idx].T
	mode := posAt
	switch {
	case d > 0 && d <= maxExtrapolateSec:
		mode = posExtrap
	case d > maxExtrapolateSec && idx+1 < len(samples):
		mode = posNext
	}
	if mode != m.mode || idx != m.idx {
		m.mode, m.idx = mode, idx
		if mode == posNext {
			m.s = samples[idx+1]
		} else {
			m.s = samples[idx]
			m.base = m.s.Km
			m.rate = m.s.MPH * geo.KmPerMile / 3600
		}
	}
	if mode == posExtrap {
		m.s.Km = m.base + m.rate*d
	}
	return &m.s
}

// position returns the vehicle position at time t of the adapter's test.
func (a *adapter) position(t float64) *geo.Sample {
	return a.pos.at(a.c.Trace.Samples, a.trCur.At(t), t)
}

// newAdapter starts a test at time t on the phone's adapter with a
// pre-allocated test id (ids come from the schedule, so they stay
// deterministic). need is the test's standing demand, the radio outputs it
// reads on every tick. For driving tests the server is selected at test start
// from the phone's position (as the test harness did); static tests pass
// their own state.
func (c *Campaign) newAdapter(id int, ph *phone, t float64, profile ran.Traffic, dir radio.Direction, need radio.Need, static *staticState) *adapter {
	a := &ph.a
	*a = adapter{Lane: a.Lane.Recycle(), c: c, ph: ph, static: static, need: need | c.floorNeed()}
	ue := ph.ue
	if static != nil {
		ue = nil // the lane steps the pinned link, not the driving UE
		a.Bind(ph.op, ue, ph.lat)
		a.StartPhase(id, t, profile, dir, c.Reg.Select(ph.op, static.pos, static.zone))
	} else {
		a.Bind(ph.op, ue, ph.lat)
		a.trCur.ResetAt(c.Trace, t)
		s := a.position(t)
		a.StartPhase(id, t, profile, dir, c.Reg.Select(ph.op, s.Pos, s.Zone))
	}
	ph.ue.TakeHandovers() // drop events from between tests
	return a
}

// advance moves the adapter forward dt seconds and returns the current
// path condition in both directions; need names the radio outputs the
// caller reads this tick beyond the test's standing need (see
// batch.Lane.Advance).
func (a *adapter) advance(dt float64, need radio.Need) (capDL, capUL, rttMs float64, outage bool) {
	need |= a.need
	if a.static != nil {
		return a.AdvanceStatic(dt, a.static.link, a.static.tech, a.static.km, a.static.pos, a.static.zone, need)
	}
	return a.Advance(dt, a.position(a.T+dt), need)
}

// pathAdapter exposes the adapter as a transport.Path in one direction.
// A transport test reads the same outputs on every tick, so its demand is
// the adapter's standing need.
type pathAdapter struct{ a *adapter }

func (p pathAdapter) Step(dt float64) transport.PathState {
	dl, ul, rtt, outage := p.a.advance(dt, 0)
	cap := dl
	if p.a.Dir == radio.Uplink {
		cap = ul
	}
	return transport.PathState{CapBps: cap, BaseRTTms: rtt, Outage: outage}
}

// netAdapter exposes the adapter as an apps.Net (both directions + RTT).
type netAdapter struct{ a *adapter }

func (n netAdapter) Step(dt float64, need radio.Need) apps.NetState {
	dl, ul, rtt, outage := n.a.advance(dt, need)
	return apps.NetState{CapDLbps: dl, CapULbps: ul, RTTms: rtt, Outage: outage}
}
