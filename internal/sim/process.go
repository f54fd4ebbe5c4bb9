package sim

import "math"

// GaussMarkov is a first-order autoregressive (Gauss–Markov / discrete
// Ornstein–Uhlenbeck) process. It models quantities that fluctuate around a
// mean with temporal correlation: log-normal shadowing along a drive, queuing
// delay at a serving cell, residual interference, and so on.
//
// At each Step(dt) the state decays toward Mean with time constant Tau and
// receives Gaussian innovation scaled so the stationary standard deviation is
// Sigma regardless of the step size.
type GaussMarkov struct {
	Mean  float64 // stationary mean
	Sigma float64 // stationary standard deviation
	Tau   float64 // correlation time constant in seconds

	rng   *RNG
	value float64
	init  bool

	// Decay-factor memo: simulations step processes at a fixed tick, so the
	// exp/sqrt pair for (dt, Tau) is cached and recomputed only when either
	// changes. The cached values are exactly what Step would compute, so
	// results are bit-identical with or without the memo.
	memoDt   float64
	memoTau  float64
	memoRho  float64
	memoDiff float64 // sqrt(1 - rho^2)
}

// NewGaussMarkov returns a process with the given stationary statistics. The
// initial state is drawn from the stationary distribution on first use.
func NewGaussMarkov(rng *RNG, mean, sigma, tau float64) *GaussMarkov {
	g := MakeGaussMarkov(rng, mean, sigma, tau)
	return &g
}

// MakeGaussMarkov is the by-value form of NewGaussMarkov, for embedding the
// process directly in a parent struct (radio.Link packs its four processes
// contiguously this way) instead of scattering it on the heap.
func MakeGaussMarkov(rng *RNG, mean, sigma, tau float64) GaussMarkov {
	return GaussMarkov{Mean: mean, Sigma: sigma, Tau: tau, rng: rng}
}

// Value returns the current state without advancing the process.
func (g *GaussMarkov) Value() float64 {
	if !g.init {
		g.value = g.Mean + g.Sigma*g.rng.NormFloat64()
		g.init = true
	}
	return g.value
}

// Step advances the process by dt seconds and returns the new state.
func (g *GaussMarkov) Step(dt float64) float64 {
	// Inline Value's lazy init: Value's draw branch pushes it past the
	// inlining budget, so calling it here would cost a function call on
	// every tick of every process.
	if !g.init {
		g.value = g.Mean + g.Sigma*g.rng.NormFloat64()
		g.init = true
	}
	v := g.value
	if dt <= 0 {
		return v
	}
	if dt != g.memoDt || g.Tau != g.memoTau {
		g.memoDt, g.memoTau = dt, g.Tau
		g.memoRho = math.Exp(-dt / g.Tau)
		g.memoDiff = math.Sqrt(1 - g.memoRho*g.memoRho)
	}
	rho := g.memoRho
	g.value = g.Mean + rho*(v-g.Mean) + g.Sigma*g.memoDiff*g.rng.NormFloat64()
	return g.value
}

// Reset re-draws the state from the stationary distribution. Used at
// handovers, where the shadowing and queueing state of the new cell is
// independent of the old one.
func (g *GaussMarkov) Reset() {
	g.value = g.Mean + g.Sigma*g.rng.NormFloat64()
	g.init = true
}

// MarkovChain is a discrete-state Markov chain stepped in continuous time via
// per-state exponential holding times. It models persistent on/off episodes
// such as a link's blockage and cell congestion: the state persists for a
// random holding time and then jumps according to the transition matrix.
type MarkovChain struct {
	// HoldMean[i] is the mean holding length (in whatever unit Step is
	// called with, seconds for the link chains) of state i.
	HoldMean []float64
	// Trans[i][j] is the probability of jumping to state j when leaving
	// state i. Rows must sum to 1 (enforced by Choice's normalization).
	Trans [][]float64

	rng       *RNG
	state     int
	remaining float64
	started   bool
}

// MakeMarkovChain returns a chain starting in the given state, by value for
// embedding.
func MakeMarkovChain(rng *RNG, start int, holdMean []float64, trans [][]float64) MarkovChain {
	return MarkovChain{HoldMean: holdMean, Trans: trans, rng: rng, state: start}
}

// Step advances the chain by d units and returns the state occupied at the
// end of the step. Holding times are exponential with the per-state means.
func (m *MarkovChain) Step(d float64) int {
	if !m.started {
		m.remaining = m.rng.Exponential(m.HoldMean[m.state])
		m.started = true
	}
	for d >= m.remaining {
		d -= m.remaining
		m.state = m.rng.Choice(m.Trans[m.state])
		m.remaining = m.rng.Exponential(m.HoldMean[m.state])
	}
	m.remaining -= d
	return m.state
}
