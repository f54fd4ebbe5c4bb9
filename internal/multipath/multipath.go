// Package multipath implements the paper's first recommendation for
// improving driving performance (§5.4, §8): multi-connectivity that
// aggregates links from multiple operators, in the style of Multipath TCP.
// It bonds one CUBIC subflow per carrier over independently varying paths.
//
// The paper motivates this with Fig. 6: performance at a given location is
// highly diverse across operators, and the operator using a high-throughput
// technology is not always the fastest — so bonding captures gains that
// switching alone would miss.
package multipath

import (
	"fmt"

	"wheels/internal/transport"
)

// Aggregator bonds one TCP CUBIC subflow per path, mimicking an MPTCP
// connection with uncoupled congestion control (each subflow probes its own
// path independently, which is the right model for subflows on disjoint
// carrier networks).
type Aggregator struct {
	paths []transport.Path
	flows []*transport.CubicFlow
}

// NewAggregator returns an aggregator over the given paths. At least one
// path is required.
func NewAggregator(paths ...transport.Path) (*Aggregator, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("multipath: need at least one path")
	}
	a := &Aggregator{paths: paths}
	for range paths {
		a.flows = append(a.flows, transport.NewCubicFlow())
	}
	return a, nil
}

// BondedResult is the outcome of one bonded bulk transfer.
type BondedResult struct {
	Aggregate transport.BulkResult   // sum over subflows
	PerPath   []transport.BulkResult // each subflow's own contribution
}

// RunBulk runs a bonded bulk transfer for durSec seconds: every tick each
// subflow advances over its own path and the delivered bytes are summed.
// Sampling matches the measurement study's 500 ms cadence.
func (a *Aggregator) RunBulk(durSec float64) BondedResult {
	res := BondedResult{PerPath: make([]transport.BulkResult, len(a.paths))}
	windows := make([]float64, len(a.paths))
	var aggWindow float64
	const dt = 0.02
	nextSample := transport.SampleIntervalSec
	for t := 0.0; t < durSec; t += dt {
		for i, p := range a.paths {
			st := p.Step(dt)
			cap := st.CapBps
			if st.Outage {
				cap = 0
			}
			d := a.flows[i].Step(dt, cap, st.BaseRTTms)
			windows[i] += d
			aggWindow += d
			res.PerPath[i].DeliveredBytes += d
			res.Aggregate.DeliveredBytes += d
		}
		if t+dt >= nextSample {
			for i := range windows {
				res.PerPath[i].SamplesBps = append(res.PerPath[i].SamplesBps,
					windows[i]*8/transport.SampleIntervalSec)
				windows[i] = 0
			}
			res.Aggregate.SamplesBps = append(res.Aggregate.SamplesBps,
				aggWindow*8/transport.SampleIntervalSec)
			aggWindow = 0
			nextSample += transport.SampleIntervalSec
		}
	}
	res.Aggregate.DurSec = durSec
	for i := range res.PerPath {
		res.PerPath[i].DurSec = durSec
	}
	return res
}
