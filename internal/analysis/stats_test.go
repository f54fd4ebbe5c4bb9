package analysis

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestCDFQuantiles(t *testing.T) {
	c := NewCDF([]float64{4, 1, 3, 2, 5})
	if c.Min() != 1 || c.Max() != 5 {
		t.Errorf("min/max = %v/%v", c.Min(), c.Max())
	}
	if c.Median() != 3 {
		t.Errorf("median = %v, want 3", c.Median())
	}
	if got := c.Quantile(0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := c.Quantile(1); got != 5 {
		t.Errorf("q1 = %v", got)
	}
	if got := c.Quantile(0.25); got != 2 {
		t.Errorf("q25 = %v, want 2", got)
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if !math.IsNaN(c.Median()) || !math.IsNaN(c.Max()) || !math.IsNaN(c.FracBelow(1)) {
		t.Error("empty CDF did not return NaN")
	}
	if c.N() != 0 {
		t.Error("empty CDF has samples")
	}
}

func TestCDFFracBelow(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	if got := c.FracBelow(2.5); got != 0.5 {
		t.Errorf("FracBelow(2.5) = %v, want 0.5", got)
	}
	if got := c.FracBelow(0); got != 0 {
		t.Errorf("FracBelow(0) = %v, want 0", got)
	}
	if got := c.FracBelow(100); got != 1 {
		t.Errorf("FracBelow(100) = %v, want 1", got)
	}
	// Strictly-below semantics at an exact sample value.
	if got := c.FracBelow(2); got != 0.25 {
		t.Errorf("FracBelow(2) = %v, want 0.25", got)
	}
}

func TestCDFQuantileMonotone(t *testing.T) {
	c := NewCDF([]float64{9, 2, 7, 7, 3, 1, 8})
	if err := quick.Check(func(a, b uint8) bool {
		qa, qb := float64(a)/255, float64(b)/255
		if qa > qb {
			qa, qb = qb, qa
		}
		return c.Quantile(qa) <= c.Quantile(qb)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestCDFDoesNotAliasInput(t *testing.T) {
	in := []float64{3, 1, 2}
	c := NewCDF(in)
	in[0] = 99
	if c.Max() == 99 {
		t.Error("CDF aliases the caller's slice")
	}
	if sort.Float64sAreSorted(in) {
		t.Error("NewCDF sorted the caller's slice in place")
	}
}

func TestPearsonKnownValues(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if r := Pearson(x, y); math.Abs(r-1) > 1e-12 {
		t.Errorf("perfectly correlated r = %v", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if r := Pearson(x, neg); math.Abs(r+1) > 1e-12 {
		t.Errorf("perfectly anti-correlated r = %v", r)
	}
	if r := Pearson(x, []float64{7, 7, 7, 7, 7}); !math.IsNaN(r) {
		t.Errorf("constant series r = %v, want NaN", r)
	}
	if r := Pearson(x, []float64{1, 2}); !math.IsNaN(r) {
		t.Errorf("mismatched lengths r = %v, want NaN", r)
	}
}

func TestPearsonBounded(t *testing.T) {
	if err := quick.Check(func(a, b, c, d, e, f int8) bool {
		x := []float64{float64(a), float64(b), float64(c)}
		y := []float64{float64(d), float64(e), float64(f)}
		r := Pearson(x, y)
		return math.IsNaN(r) || (r >= -1-1e-9 && r <= 1+1e-9)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanStd(t *testing.T) {
	v := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(v); m != 5 {
		t.Errorf("mean = %v, want 5", m)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("empty mean not NaN")
	}
}

func TestMeanProperties(t *testing.T) {
	if err := quick.Check(func(a, b int8) bool {
		m := Mean([]float64{float64(a), float64(b)})
		lo, hi := float64(a), float64(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		return m >= lo && m <= hi
	}, nil); err != nil {
		t.Error(err)
	}
}

// TestCDFSeries checks the chart polyline of a CDF: x ascends from the
// minimum to the maximum while y climbs strictly to 1.
func TestCDFSeries(t *testing.T) {
	s := cdfSeries("x", NewCDF([]float64{3, 1, 2}), false)
	if s.X[0] != 1 || s.X[len(s.X)-1] != 3 {
		t.Errorf("x does not span [1, 3]: %v", s.X)
	}
	if s.Y[len(s.Y)-1] != 1 {
		t.Errorf("CDF does not end at 1: %v", s.Y)
	}
	for i := 1; i < len(s.Y); i++ {
		if s.Y[i] <= s.Y[i-1] || s.X[i] < s.X[i-1] {
			t.Fatalf("CDF not increasing at %d: x %v y %v", i, s.X, s.Y)
		}
	}
}

// TestCDFSeriesDecimation checks that a large CDF draws as a bounded
// polyline that keeps its maximum, and an empty one as no points.
func TestCDFSeriesDecimation(t *testing.T) {
	big := make([]float64, 10000)
	for i := range big {
		big[i] = float64(i)
	}
	s := cdfSeries("big", NewCDF(big), false)
	if len(s.X) > cdfPoints+1 {
		t.Errorf("series has %d points, want at most %d", len(s.X), cdfPoints+1)
	}
	if s.X[len(s.X)-1] != 9999 || s.Y[len(s.Y)-1] != 1 {
		t.Error("the series dropped the maximum")
	}
	if cdfSeries("empty", NewCDF(nil), false).X != nil {
		t.Error("empty input produced points")
	}
}
