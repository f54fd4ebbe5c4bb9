// Package transport models the end-to-end data path the paper measures:
// TCP CUBIC bulk transfers (nuttcp with a single connection, §5) over the
// simulated time-varying radio link. It also owns the latency composition
// that the campaign's ping tests sample: radio access latency per
// technology, wire latency to the server, and the driving-induced inflation
// that turns static tens-of-ms RTTs into the multi-second spikes of Fig. 3b.
package transport

import (
	"wheels/internal/radio"
	"wheels/internal/sim"
)

// AccessRTTms returns the radio access round-trip latency (UE ↔ base
// station ↔ core edge) per technology: mmWave and mid-band NR cut the air
// interface latency, low-band NR behaves like LTE because of its NSA
// anchor and long TTIs (Fig. 4 shows LTE-A beating 5G-low on RTT).
func AccessRTTms(t radio.Tech) float64 {
	switch t {
	case radio.NRmmW:
		return 9
	case radio.NRMid:
		return 17
	case radio.NRLow:
		return 30
	case radio.LTEA:
		return 26
	default: // LTE
		return 33
	}
}

// LatencyModel produces per-step RTTs: the deterministic access + wire
// components plus correlated driving inflation (scheduling and
// retransmission delay that grows with mobility) and occasional heavy-tail
// spikes (RRC reestablishments, buffer stalls) reaching seconds, as in
// Fig. 3b.
type LatencyModel struct {
	rng      *sim.RNG
	inflate  *sim.GaussMarkov
	speedMs  float64 // extra ms per mph; carrier-dependent (Fig. 8)
	spikeP   float64 // per-step probability of a heavy-tail spike
	spikeCap float64
}

// NewLatencyModel returns a latency model for the operator. Fig. 8: RTT
// correlates with speed for Verizon and T-Mobile but not AT&T (whose 4G
// RTTs are high at every speed).
func NewLatencyModel(rng *sim.RNG, op radio.Operator) *LatencyModel {
	m := &LatencyModel{
		rng:      rng.Stream("latency", op.String()),
		spikeP:   0.006,
		spikeCap: 2800,
	}
	switch op {
	case radio.Verizon:
		m.speedMs = 0.28
		m.inflate = sim.NewGaussMarkov(m.rng.Stream("inflate"), 14, 9, 20)
	case radio.TMobile:
		m.speedMs = 0.30
		m.inflate = sim.NewGaussMarkov(m.rng.Stream("inflate"), 24, 12, 20)
	default: // ATT: high floor, weak speed dependence
		m.speedMs = 0.05
		m.inflate = sim.NewGaussMarkov(m.rng.Stream("inflate"), 30, 12, 20)
	}
	return m
}

// RTTms returns the current base RTT (without bufferbloat) for a step of dt
// seconds: access + wire + driving inflation + rare heavy-tail spikes.
// Static measurements pass mph = 0, which also disables spikes: the paper's
// static RTTs stay within ~150 ms.
func (m *LatencyModel) RTTms(dt float64, tech radio.Tech, wireMs, mph float64) float64 {
	infl := m.inflate.Step(dt)
	if infl < 0 {
		infl = 0
	}
	rtt := AccessRTTms(tech) + wireMs + infl + m.speedMs*mph
	if mph > 1 && m.rng.Bool(m.spikeP*dt/0.5) {
		spike := m.rng.Pareto(90, 1.25)
		if spike > m.spikeCap {
			spike = m.spikeCap
		}
		rtt += spike
	}
	return rtt
}

// Reset re-draws the inflation state (used between independent tests).
func (m *LatencyModel) Reset() { m.inflate.Reset() }
