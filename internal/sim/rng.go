// Package sim provides the deterministic simulation substrate shared by every
// other package in this repository: seeded random-number streams, the common
// probability distributions used by the radio and traffic models, correlated
// (Gauss–Markov) processes for quantities that evolve smoothly over time, a
// simulation clock anchored at the start of the paper's driving trip, and a
// discrete-event scheduler.
//
// Determinism is a design requirement (DESIGN.md §5): every random draw in the
// simulator flows from an RNG stream derived from (seed, labels...), so any
// experiment regenerates bit-identically for a given seed regardless of the
// order in which unrelated subsystems consume randomness.
package sim

import "math"

// splitmix64 advances the classic SplitMix64 generator one step. It is used
// only for key derivation, not for the streams themselves.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hashLabel folds a label string into a 64-bit key using an FNV-1a variant
// followed by a SplitMix64 finalizer, which is enough to decorrelate streams
// whose labels share long prefixes.
func hashLabel(key uint64, label string) uint64 {
	const prime = 1099511628211
	h := key ^ 14695981039346656037
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime
	}
	return splitmix64(h)
}

// RNG is a deterministic random stream. It wraps math/rand with a derivation
// scheme so that independent subsystems can obtain independent streams from a
// single campaign seed.
//
// The zero value is not usable; construct streams with NewRNG or Stream.
type RNG struct {
	key uint64
	// src is embedded by value: the generator state lives inline with the
	// stream object, so every draw saves a pointer hop and the distribution
	// methods inline straight onto the lagged-Fibonacci register.
	src fastRand
}

// NewRNG returns the root stream for the given campaign seed.
func NewRNG(seed int64) *RNG {
	key := splitmix64(uint64(seed))
	r := &RNG{key: key}
	r.src.seed(int64(key))
	return r
}

// Stream derives an independent child stream identified by the given labels.
// Streams with distinct label paths are statistically independent, and the
// same path always yields the same stream for a given root seed.
func (r *RNG) Stream(labels ...string) *RNG {
	key := r.key
	for _, l := range labels {
		key = hashLabel(key, l)
	}
	c := &RNG{key: key}
	c.src.seed(int64(key))
	return c
}

// Intn returns a uniform draw in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int { return r.src.Intn(n) }

// NormFloat64 returns a standard normal draw.
func (r *RNG) NormFloat64() float64 { return r.src.NormFloat64() }

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.src.Float64() < p }

// Uniform returns a uniform draw in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.src.Float64()
}

// Normal returns a normal draw with the given mean and standard deviation.
func (r *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.src.NormFloat64()
}

// LogNormalMedian returns a log-normal draw parameterized by its median and
// the sigma of log X, which is the natural parameterization for latency and
// handover-duration distributions reported as medians in the paper.
func (r *RNG) LogNormalMedian(median, sigma float64) float64 {
	return median * math.Exp(sigma*r.src.NormFloat64())
}

// Exponential returns an exponential draw with the given mean.
func (r *RNG) Exponential(mean float64) float64 {
	return mean * r.src.ExpFloat64()
}

// Pareto returns a (Type I) Pareto draw with minimum xm and shape alpha.
// Heavy-tailed draws model the multi-second RTT spikes observed in Fig. 3b.
func (r *RNG) Pareto(xm, alpha float64) float64 {
	u := r.src.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return xm / math.Pow(1-u, 1/alpha)
}

// Choice returns an index in [0, len(weights)) drawn with probability
// proportional to the weights. Zero or negative weights are treated as zero.
// It panics if all weights are non-positive or the slice is empty.
func (r *RNG) Choice(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("sim: Choice requires at least one positive weight")
	}
	t := r.src.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		t -= w
		if t < 0 {
			return i
		}
	}
	return len(weights) - 1
}
