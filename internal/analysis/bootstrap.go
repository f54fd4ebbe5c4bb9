package analysis

import (
	"math"
	"sort"

	"wheels/internal/sim"
)

// Bootstrap resampling for confidence intervals. A replication study should
// state how tight its estimates are: the per-figure medians in
// EXPERIMENTS.md carry percentile-bootstrap CIs computed here.

// BootstrapCI returns the [lo, hi] percentile-bootstrap confidence interval
// for the statistic at the given confidence level (e.g. 0.95), using
// resamples draws. It returns NaNs for empty input. A one-value series
// returns its statistic twice without drawing: every resample would be
// that series.
func BootstrapCI(values []float64, stat func([]float64) float64, resamples int, level float64, rng *sim.RNG) (lo, hi float64) {
	n := len(values)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		s := stat(values)
		return s, s
	}
	if resamples < 10 {
		resamples = 10
	}
	if level <= 0 || level >= 1 {
		level = 0.95
	}
	stats := make([]float64, resamples)
	sample := make([]float64, n)
	for i := 0; i < resamples; i++ {
		for j := range sample {
			sample[j] = values[rng.Intn(n)]
		}
		stats[i] = stat(sample)
	}
	sort.Float64s(stats)
	alpha := (1 - level) / 2
	loIdx := int(alpha * float64(resamples))
	hiIdx := int((1 - alpha) * float64(resamples))
	if hiIdx >= resamples {
		hiIdx = resamples - 1
	}
	return stats[loIdx], stats[hiIdx]
}

// MedianStat is the median statistic for BootstrapCI.
func MedianStat(v []float64) float64 {
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	n := len(c)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// MedianCI is a convenience wrapper: the 95% bootstrap CI of the median
// with 500 resamples from a fixed analysis stream.
func MedianCI(values []float64, seed int64) (median, lo, hi float64) {
	rng := sim.NewRNG(seed).Stream("bootstrap")
	lo, hi = BootstrapCI(values, MedianStat, 500, 0.95, rng)
	return MedianStat(values), lo, hi
}
