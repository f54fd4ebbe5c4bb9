// Package replay is a trace-driven what-if engine over the campaign
// dataset: it reconstructs per-test network-condition traces from the
// recorded 500 ms samples and re-runs the application models over them
// under counterfactual transforms — double capacity, halved RTT,
// edge-everywhere latency, no outages. This quantifies the paper's §8
// recommendations (edge deployment, network upgrades) without re-running
// the radio simulation: the apps see exactly the bandwidth series the
// campaign recorded, modified only by the stated counterfactual.
//
// Caveat: the recorded series is *achieved* single-connection throughput,
// which is a conservative proxy for the bandwidth an application would
// have had. Capacity-scaling transforms therefore answer "what if the
// app's bandwidth series had been k× better", not "what if the radio had
// k× capacity".
package replay

import (
	"sort"

	"wheels/internal/apps"
	"wheels/internal/dataset"
	"wheels/internal/radio"
)

// Step is one 500 ms of replayed network conditions.
type Step struct {
	CapBps float64
	RTTms  float64
	Outage bool
}

// Trace is the replayable condition series of one recorded test.
type Trace struct {
	Op     radio.Operator
	TestID int
	Dir    radio.Direction
	Steps  []Step
}

// stepSec is the recording cadence.
const stepSec = 0.5

// Extract rebuilds one trace per driving bulk test in the given direction.
// Each sample becomes a 500 ms step; the step RTT is the operator's median
// driving RTT from the same dataset (RTT tests run minutes apart from bulk
// tests, so a per-step join is not possible — the paper had the same
// constraint). Samples below outageBps count as outages.
func Extract(ds *dataset.Dataset, dir radio.Direction) []Trace {
	medianRTT := map[radio.Operator]float64{}
	{
		byOp := map[radio.Operator][]float64{}
		for _, s := range ds.RTT {
			if !s.Static {
				byOp[s.Op] = append(byOp[s.Op], s.Ms)
			}
		}
		for op, v := range byOp {
			sort.Float64s(v)
			medianRTT[op] = v[len(v)/2]
		}
	}
	const outageBps = 1000.0

	byTest := map[int]*Trace{}
	var order []int
	for _, s := range ds.Thr {
		if s.Static || s.Dir != dir {
			continue
		}
		tr, ok := byTest[s.TestID]
		if !ok {
			tr = &Trace{Op: s.Op, TestID: s.TestID, Dir: dir}
			byTest[s.TestID] = tr
			order = append(order, s.TestID)
		}
		rtt := medianRTT[s.Op]
		if rtt == 0 {
			rtt = 70
		}
		tr.Steps = append(tr.Steps, Step{
			CapBps: s.Bps,
			RTTms:  rtt,
			Outage: s.Bps < outageBps,
		})
	}
	sort.Ints(order)
	out := make([]Trace, 0, len(order))
	for _, id := range order {
		out = append(out, *byTest[id])
	}
	return out
}

// Transform is a counterfactual applied to every step.
type Transform func(Step) Step

// ScaleCapacity multiplies the bandwidth series by f.
func ScaleCapacity(f float64) Transform {
	return func(s Step) Step {
		s.CapBps *= f
		return s
	}
}

// ScaleRTT multiplies the latency series by f.
func ScaleRTT(f float64) Transform {
	return func(s Step) Step {
		s.RTTms *= f
		return s
	}
}

// CapRTT clamps the latency series to at most ms — the "edge server
// everywhere" counterfactual (§8 recommendation 3).
func CapRTT(ms float64) Transform {
	return func(s Step) Step {
		if s.RTTms > ms {
			s.RTTms = ms
		}
		return s
	}
}

// NoOutages replaces outage steps with the trace's last good conditions —
// the "perfect coverage continuity" counterfactual.
func NoOutages() Transform {
	var last Step
	seeded := false
	return func(s Step) Step {
		if !s.Outage && s.CapBps > 0 {
			last = s
			seeded = true
			return s
		}
		if seeded {
			return last
		}
		return s
	}
}

// net adapts a trace to apps.Net, looping if the app outlives the trace.
type net struct {
	steps []Step
	t     float64
}

func (n *net) Step(dt float64, _ radio.Need) apps.NetState {
	idx := int(n.t/stepSec) % len(n.steps)
	n.t += dt
	s := n.steps[idx]
	return apps.NetState{
		CapDLbps: s.CapBps,
		// Uplink replays use uplink traces, where the capacity series IS
		// the uplink; expose it on both so either kind of app can run.
		CapULbps: s.CapBps,
		RTTms:    s.RTTms,
		Outage:   s.Outage,
	}
}

// Net returns an apps.Net replaying the trace under the transforms.
// Traces shorter than the app session loop.
func (t Trace) Net(transforms ...Transform) apps.Net {
	steps := make([]Step, len(t.Steps))
	for i, s := range t.Steps {
		for _, tr := range transforms {
			s = tr(s)
		}
		steps[i] = s
	}
	return &net{steps: steps}
}
