package sim

import (
	"math"
	"testing"
)

func TestGaussMarkovStationaryMoments(t *testing.T) {
	g := NewGaussMarkov(NewRNG(3).Stream("gm"), 10, 2, 5)
	// Burn in past several time constants, then sample.
	for i := 0; i < 1000; i++ {
		g.Step(1)
	}
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := g.Step(1)
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	std := math.Sqrt(sum2/n - mean*mean)
	if math.Abs(mean-10) > 0.1 {
		t.Errorf("stationary mean = %.3f, want 10", mean)
	}
	if math.Abs(std-2) > 0.1 {
		t.Errorf("stationary stddev = %.3f, want 2", std)
	}
}

func TestGaussMarkovCorrelationDecay(t *testing.T) {
	g := NewGaussMarkov(NewRNG(4).Stream("gm2"), 0, 1, 10)
	for i := 0; i < 500; i++ {
		g.Step(1)
	}
	// Lag-1 autocorrelation at dt=1 should be about exp(-1/10) ~ 0.905.
	const n = 200000
	prev := g.Value()
	var sxy, sxx float64
	for i := 0; i < n; i++ {
		v := g.Step(1)
		sxy += prev * v
		sxx += prev * prev
		prev = v
	}
	rho := sxy / sxx
	want := math.Exp(-0.1)
	if math.Abs(rho-want) > 0.02 {
		t.Errorf("lag-1 autocorrelation = %.3f, want %.3f", rho, want)
	}
}

func TestGaussMarkovZeroStep(t *testing.T) {
	g := NewGaussMarkov(NewRNG(5).Stream("gm3"), 1, 1, 1)
	v := g.Value()
	if g.Step(0) != v {
		t.Error("Step(0) changed the state")
	}
	if g.Step(-1) != v {
		t.Error("Step(-1) changed the state")
	}
}

func TestGaussMarkovResetChangesState(t *testing.T) {
	g := NewGaussMarkov(NewRNG(6).Stream("gm4"), 0, 5, 1)
	v := g.Value()
	g.Reset()
	if g.Value() == v {
		t.Error("Reset left the state unchanged (vanishingly unlikely)")
	}
}

func TestMarkovChainOccupancy(t *testing.T) {
	// Two states with equal hold lengths and symmetric transitions: long-run
	// occupancy should be 50/50.
	m := MakeMarkovChain(NewRNG(7).Stream("mc"), 0,
		[]float64{100, 100},
		[][]float64{{0, 1}, {1, 0}})
	in0 := 0
	const steps = 200000
	for i := 0; i < steps; i++ {
		if m.Step(10) == 0 {
			in0++
		}
	}
	frac := float64(in0) / steps
	if frac < 0.47 || frac > 0.53 {
		t.Errorf("state-0 occupancy = %.3f, want about 0.5", frac)
	}
}

func TestMarkovChainHoldLength(t *testing.T) {
	// Unequal hold lengths: occupancy proportional to hold means because the
	// jump chain is symmetric.
	m := MakeMarkovChain(NewRNG(8).Stream("mc2"), 0,
		[]float64{300, 100},
		[][]float64{{0, 1}, {1, 0}})
	in0 := 0
	const steps = 300000
	for i := 0; i < steps; i++ {
		if m.Step(5) == 0 {
			in0++
		}
	}
	frac := float64(in0) / steps
	if frac < 0.72 || frac > 0.78 {
		t.Errorf("state-0 occupancy = %.3f, want about 0.75", frac)
	}
}

func TestMarkovChainLargeStepCrossesRuns(t *testing.T) {
	m := MakeMarkovChain(NewRNG(9).Stream("mc3"), 0,
		[]float64{1, 1},
		[][]float64{{0, 1}, {1, 0}})
	// A step far longer than the hold mean must be able to land in either
	// state without looping forever.
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		seen[m.Step(50)] = true
	}
	if len(seen) != 2 {
		t.Errorf("after long steps saw states %v, want both", seen)
	}
}
