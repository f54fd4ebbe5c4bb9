// Package analysis turns the consolidated campaign dataset into the
// paper's figures and tables: coverage breakdowns (Figs. 1–2), static vs
// driving and per-technology performance (Figs. 3–5), operator diversity
// (Fig. 6), speed and KPI analysis (Figs. 7–8, Table 2), longer-timescale
// statistics (Figs. 9–10, Table 3), handover analysis (Figs. 11–12), and
// application QoE (Figs. 13–16). Each reducer returns a plain struct with a
// text renderer so figures can be regenerated from any dataset.
package analysis

import (
	"fmt"
	"math"
	"sort"
)

// CDF is an empirical distribution.
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF from values (copied and sorted).
func NewCDF(values []float64) CDF {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return CDF{sorted: s}
}

// N returns the sample count.
func (c CDF) N() int { return len(c.sorted) }

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by linear interpolation, or
// NaN for an empty CDF.
func (c CDF) Quantile(q float64) float64 {
	n := len(c.sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[n-1]
	}
	pos := q * float64(n-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= n {
		return c.sorted[n-1]
	}
	return c.sorted[i]*(1-frac) + c.sorted[i+1]*frac
}

// Median returns the 0.5 quantile.
func (c CDF) Median() float64 { return c.Quantile(0.5) }

// Max returns the largest sample (NaN if empty).
func (c CDF) Max() float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	return c.sorted[len(c.sorted)-1]
}

// Min returns the smallest sample (NaN if empty).
func (c CDF) Min() float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	return c.sorted[0]
}

// FracBelow returns P(X < x).
func (c CDF) FracBelow(x float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	i := sort.SearchFloat64s(c.sorted, x)
	return float64(i) / float64(len(c.sorted))
}

// Mean returns the arithmetic mean of the values (NaN if empty).
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// Pearson returns the Pearson correlation coefficient between x and y.
// It returns NaN when the inputs differ in length, are shorter than 2, or
// either is constant.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return math.NaN()
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// summarize renders a one-line five-number summary for a CDF.
func summarize(name string, c CDF, unit string) string {
	if c.N() == 0 {
		return fmt.Sprintf("%-28s (no samples)", name)
	}
	return fmt.Sprintf("%-28s n=%-6d min=%8.2f p25=%8.2f med=%8.2f p75=%8.2f max=%9.2f %s",
		name, c.N(), c.Min(), c.Quantile(0.25), c.Median(), c.Quantile(0.75), c.Max(), unit)
}
