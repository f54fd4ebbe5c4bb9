package ran

import (
	"math"

	"wheels/internal/deploy"
	"wheels/internal/geo"
	"wheels/internal/radio"
	"wheels/internal/sim"
)

// Snapshot is the UE-side radio state for one simulation step: the serving
// technology and cell, the PHY KPIs, and the capacity actually usable by
// traffic (zero during handover execution or service outage).
type Snapshot struct {
	T      float64
	Tech   radio.Tech
	Cell   deploy.Cell
	Link   radio.LinkState
	InHO   bool
	Outage bool
	CapDL  float64 // bits/s usable by the application right now
	CapUL  float64
}

// HandoverEvent records one handover with its control-plane interruption.
type HandoverEvent struct {
	T       float64 // start of the interruption
	DurSec  float64
	From    deploy.Cell
	To      deploy.Cell
	Traffic Traffic
}

// hoDurationMedianMs returns the per-operator handover interruption medians
// measured by the paper (Fig. 11b), split by traffic direction.
func hoDurationMedianMs(op radio.Operator, dir radio.Direction) float64 {
	switch op {
	case radio.Verizon:
		if dir == radio.Downlink {
			return 53
		}
		return 49
	case radio.TMobile:
		if dir == radio.Downlink {
			return 76
		}
		return 75
	default:
		if dir == radio.Downlink {
			return 58
		}
		return 57
	}
}

// hoDurationSigma is the log-normal spread of handover durations; 0.42
// puts the 75th percentile ~1.33× the median, matching Fig. 11b.
const hoDurationSigma = 0.42

// Policy evaluation cadence: how often the operator reconsiders which
// technology should serve the UE. Jittered to avoid lockstep artifacts.
const (
	evalMinSec = 9.0
	evalMaxSec = 16.0
)

// hoHysteresisFrac is the fraction of the inter-site spacing by which a
// neighbor must be closer before a horizontal handover triggers (an
// A3-event-style margin).
const hoHysteresisFrac = 0.08

// UE is one phone on one carrier: it tracks the serving technology and
// cell, executes the elevation policy against the operator's deployment,
// and emits handover events. One UE instance persists across tests so that
// radio state carries over exactly as it did on the real phones.
type UE struct {
	Op  radio.Operator
	Dep *deploy.Deployment

	cfg      *HandoverConfig
	rng      *sim.RNG
	links    [radio.NumTechs]radio.Link // by value: one contiguous block of channel state
	tech     radio.Tech
	cell     deploy.Cell
	attached bool
	hoUntil  float64
	nextEval float64
	events   []HandoverEvent
}

// NewUEWithConfig returns a UE for the operator over the given deployment,
// running the given handover policy. A nil cfg selects the operator's
// default (paper-measured) policy; a non-nil cfg must outlive the UE
// and must not be mutated while the UE runs. The config only changes which
// numbers feed each RNG draw, never how many draws occur per decision, so
// two UEs on the same streams but different policies stay draw-aligned
// until their first divergent decision — the property the fixed-trace
// counterfactual sweeps rely on.
func NewUEWithConfig(rng *sim.RNG, dep *deploy.Deployment, cfg *HandoverConfig) *UE {
	if cfg == nil {
		cfg = DefaultPolicy(dep.Op)
	}
	u := &UE{
		Op:  dep.Op,
		Dep: dep,
		cfg: cfg,
		rng: rng.Stream("ue", dep.Op.String()),
	}
	for _, t := range radio.Techs() {
		radio.InitLink(&u.links[t], u.rng.Stream("link", t.String()), dep.Op, t)
	}
	return u
}

// TakeHandovers returns and clears the accumulated handover events. The
// returned slice aliases the UE's internal buffer — it is valid only until
// the next Step, so callers must consume (or copy) it immediately. Keeping
// the buffer makes the steady-state tick loop allocation-free.
func (u *UE) TakeHandovers() []HandoverEvent {
	ev := u.events
	u.events = u.events[:0]
	return ev
}

// chooseTech runs one policy evaluation: walk the 5G tiers from fastest to
// slowest, elevating with the traffic- and operator-dependent probability,
// then fall back to LTE-A/LTE. The availability set arrives as a packed
// mask so the evaluation draws no memory at all.
func (u *UE) chooseTech(avail deploy.TechMask, tr Traffic, zone geo.Timezone) radio.Tech {
	for _, t := range [...]radio.Tech{radio.NRmmW, radio.NRMid, radio.NRLow} {
		if avail.Has(t) && u.rng.Bool(u.cfg.ElevProb(t, tr, zone)) {
			return t
		}
	}
	switch {
	case avail.Has(radio.LTEA) && avail.Has(radio.LTE):
		if u.rng.Bool(u.cfg.LTEAProb) {
			return radio.LTEA
		}
		return radio.LTE
	case avail.Has(radio.LTEA):
		return radio.LTEA
	case avail.Has(radio.LTE):
		return radio.LTE
	default:
		// Only 5G is deployed here (rare); take the best of it.
		best, _ := avail.Best()
		return best
	}
}

// handover moves the UE to the target cell, records the event, and starts
// the interruption timer. The new cell's channel state is independent.
func (u *UE) handover(t float64, to deploy.Cell, tr Traffic) {
	dur := u.rng.LogNormalMedian(u.cfg.HOMedianMs(tr.Direction()), u.cfg.HOSigma) / 1000
	u.events = append(u.events, HandoverEvent{T: t, DurSec: dur, From: u.cell, To: to, Traffic: tr})
	u.cell = to
	u.tech = to.Tech
	u.hoUntil = t + dur
	u.links[to.Tech].Reset()
}

// attach camps the UE on the best policy choice without a handover event
// (initial attach or service recovery after an outage).
func (u *UE) attach(t float64, km float64, avail deploy.TechMask, tr Traffic, zone geo.Timezone) {
	tech := u.chooseTech(avail, tr, zone)
	cell, _ := u.Dep.CellAt(km, tech)
	u.cell = cell
	u.tech = tech
	u.attached = true
	u.links[tech].Reset()
	u.nextEval = t + u.rng.Uniform(u.cfg.EvalMinSec, u.cfg.EvalMaxSec)
}

// StepInto advances the UE by dt seconds at the given route position and
// writes the radio snapshot into caller-owned memory, so the per-tick loops
// (the campaign's test lanes in particular) land the radio state directly
// in its long-lived slot instead of copying a Snapshot up the call chain.
// The traffic profile drives the elevation policy. need selects the serving
// link's
// outputs as radio.Link.StepInto does; a capacity outside it is not
// computed and holds no meaningful value. The policy, the handovers and
// every draw are the same whatever the need.
func (u *UE) StepInto(snap *Snapshot, t, dt, km, mph float64, road geo.RoadClass, zone geo.Timezone, tr Traffic, need radio.Need) {
	avail := u.Dep.AvailMask(km)
	if avail == 0 {
		// Dead zone: out of service entirely.
		u.attached = false
		*snap = Snapshot{T: t, Outage: true, Tech: u.tech, Cell: u.cell,
			Link: radio.LinkState{Tech: u.tech, RSRPdBm: -140, SINRdB: -10}}
		return
	}
	if !u.attached {
		u.attach(t, km, avail, tr, zone)
	}

	// Serving technology lost coverage: immediate forced vertical handover.
	if !avail.Has(u.tech) {
		tech := u.chooseTech(avail, tr, zone)
		cell, _ := u.Dep.CellAt(km, tech)
		u.handover(t, cell, tr)
	} else if t >= u.nextEval {
		// Periodic policy evaluation: the operator reconsiders elevation.
		u.nextEval = t + u.rng.Uniform(u.cfg.EvalMinSec, u.cfg.EvalMaxSec)
		if tech := u.chooseTech(avail, tr, zone); tech != u.tech {
			cell, _ := u.Dep.CellAt(km, tech)
			u.handover(t, cell, tr)
		}
	}

	// Horizontal handover: a same-technology neighbor is meaningfully
	// closer than the serving cell. One CellAt lookup covers both the
	// neighbor probe and the serving distance: when the nearest cell IS the
	// serving cell their distances coincide, so the serving Hypot is only
	// computed on the rare ticks where they differ.
	nearest, nd := u.Dep.CellAt(km, u.tech)
	servDist := nd
	if nearest.Index != u.cell.Index {
		servDist = math.Hypot(km-u.cell.CenterKm, u.cell.LateralKm)
		if nd < servDist-u.cfg.HysteresisFrac*u.Dep.SpacingKm(u.tech) {
			u.handover(t, nearest, tr)
			servDist = nd
		}
	}

	// Field-wise assignment (not a composite literal) so the compiler writes
	// the caller's snapshot in place instead of building and copying a
	// temporary; snap.Link is fully overwritten by the link step below.
	snap.T = t
	snap.Tech = u.tech
	snap.Cell = u.cell
	snap.Outage = false
	u.links[u.tech].StepInto(&snap.Link, dt, servDist, mph, road, need)

	// During a handover interruption the snapshot carries the radio KPIs
	// but no usable capacity.
	if t < u.hoUntil {
		snap.InHO = true
		snap.CapDL = 0
		snap.CapUL = 0
	} else {
		snap.InHO = false
		snap.CapDL = snap.Link.CapDL
		snap.CapUL = snap.Link.CapUL
	}
}
