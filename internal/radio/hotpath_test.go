package radio

import (
	"testing"

	"wheels/internal/geo"
	"wheels/internal/sim"
)

// BenchmarkLinkStep times one fading/capacity tick of a mid-band link at
// the transport tick width with a slowly sweeping serving distance.
func BenchmarkLinkStep(b *testing.B) {
	l := NewLink(sim.NewRNG(23).Stream("bench"), TMobile, NRMid)
	const dt = 0.02
	dist := 0.1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Step(dt, dist, 60, geo.RoadHighway)
		dist += 0.0005
		if dist > 1.5 {
			dist = 0.1
		}
	}
}

// BenchmarkLinkStepNoDemand is BenchmarkLinkStep for a caller that reads
// no radio output (an RTT probe, the passive logger, an app between
// transfers): every draw is made, the SINR chain and both capacities are
// skipped.
func BenchmarkLinkStepNoDemand(b *testing.B) {
	l := NewLink(sim.NewRNG(23).Stream("bench"), TMobile, NRMid)
	const dt = 0.02
	dist := 0.1
	var st LinkState
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.StepInto(&st, dt, dist, 60, geo.RoadHighway, 0)
		dist += 0.0005
		if dist > 1.5 {
			dist = 0.1
		}
	}
}

// TestLinkStepAllocationFree pins the per-tick link update at zero heap
// allocations: shadowing, blockage, MCS selection, and capacity must all
// run on cached per-band state.
func TestLinkStepAllocationFree(t *testing.T) {
	for _, tech := range Techs() {
		l := NewLink(sim.NewRNG(23).Stream("alloc", tech.String()), Verizon, tech)
		l.Step(0.02, 0.3, 60, geo.RoadHighway) // settle the lazy first draw
		allocs := testing.AllocsPerRun(100, func() {
			l.Step(0.02, 0.3, 60, geo.RoadHighway)
		})
		if allocs != 0 {
			t.Errorf("%s: Link.Step = %.1f allocs/op, want 0", tech, allocs)
		}
		var st LinkState
		allocs = testing.AllocsPerRun(100, func() {
			l.StepInto(&st, 0.02, 0.3, 60, geo.RoadHighway, 0)
		})
		if allocs != 0 {
			t.Errorf("%s: Link.StepInto with no need = %.1f allocs/op, want 0", tech, allocs)
		}
	}
}

// TestLinkCachedInvariantsMatchModel verifies the hoisted per-band
// invariants reproduce the model functions bit-for-bit: the mean RSRP the
// hot path computes from cached EIRP/beam-gain/reference-FSPL must be
// exactly what the uncached MeanRSRP returns, at every distance and band.
func TestLinkCachedInvariantsMatchModel(t *testing.T) {
	for _, op := range Operators() {
		for _, tech := range Techs() {
			l := NewLink(sim.NewRNG(23).Stream("x", op.String(), tech.String()), op, tech)
			for _, km := range []float64{0.001, 0.05, 0.4, 1.7, 9.3} {
				for _, road := range []geo.RoadClass{geo.RoadCity, geo.RoadSuburban, geo.RoadHighway} {
					got := meanRSRPFrom(l.eirp, l.beamGain, l.fsplRef, km, road)
					want := MeanRSRP(Bands(op, tech), km, road, BeamGainDB(op, tech))
					if got != want {
						t.Errorf("%s/%s at %.3f km on %v: cached %.17g, model %.17g",
							op, tech, km, road, got, want)
					}
				}
			}
		}
	}
}
