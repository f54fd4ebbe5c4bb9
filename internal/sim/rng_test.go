package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestStreamDeterminism(t *testing.T) {
	a := NewRNG(23).Stream("radio", "verizon")
	b := NewRNG(23).Stream("radio", "verizon")
	for i := 0; i < 100; i++ {
		if a.Uniform(0, 1) != b.Uniform(0, 1) {
			t.Fatalf("streams with identical labels diverged at draw %d", i)
		}
	}
}

func TestStreamIndependence(t *testing.T) {
	a := NewRNG(23).Stream("radio", "verizon")
	b := NewRNG(23).Stream("radio", "tmobile")
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uniform(0, 1) == b.Uniform(0, 1) {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("distinct labels produced %d identical draws out of 1000", same)
	}
}

func TestStreamLabelPathSensitivity(t *testing.T) {
	// "ab"+"c" must differ from "a"+"bc": labels are hashed stepwise, and a
	// collision here would silently correlate unrelated subsystems.
	a := NewRNG(7).Stream("ab", "c")
	b := NewRNG(7).Stream("a", "bc")
	if a.Uniform(0, 1) == b.Uniform(0, 1) && a.Uniform(0, 1) == b.Uniform(0, 1) {
		t.Fatal("label path (ab,c) collided with (a,bc)")
	}
}

func TestSeedSensitivity(t *testing.T) {
	a := NewRNG(1).Stream("x")
	b := NewRNG(2).Stream("x")
	if a.Uniform(0, 1) == b.Uniform(0, 1) {
		t.Fatal("different seeds yielded identical first draw")
	}
}

func TestUniformRange(t *testing.T) {
	r := NewRNG(5).Stream("uniform")
	if err := quick.Check(func(loRaw, spanRaw uint16) bool {
		lo := float64(loRaw) - 32768
		hi := lo + float64(spanRaw) + 1
		v := r.Uniform(lo, hi)
		return v >= lo && v < hi
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(11).Stream("normal")
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := r.Normal(3, 2)
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	std := math.Sqrt(sum2/n - mean*mean)
	if math.Abs(mean-3) > 0.05 {
		t.Errorf("mean = %.3f, want 3 +- 0.05", mean)
	}
	if math.Abs(std-2) > 0.05 {
		t.Errorf("stddev = %.3f, want 2 +- 0.05", std)
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := NewRNG(11).Stream("lognorm")
	const n = 100001
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = r.LogNormalMedian(53, 0.5)
	}
	// Median of a log-normal equals the median parameter.
	med := quickSelectMedian(vals)
	if math.Abs(med-53) > 2 {
		t.Errorf("median = %.2f, want 53 +- 2", med)
	}
	for _, v := range vals[:100] {
		if v <= 0 {
			t.Fatalf("log-normal draw %v is non-positive", v)
		}
	}
}

func TestParetoTail(t *testing.T) {
	r := NewRNG(13).Stream("pareto")
	const n = 100000
	exceed := 0
	for i := 0; i < n; i++ {
		v := r.Pareto(1, 2)
		if v < 1 {
			t.Fatalf("Pareto draw %v below minimum", v)
		}
		if v > 10 {
			exceed++
		}
	}
	// P(X > 10) = (1/10)^2 = 1%.
	frac := float64(exceed) / n
	if frac < 0.005 || frac > 0.02 {
		t.Errorf("P(X>10) = %.4f, want about 0.01", frac)
	}
}

func TestExponentialMean(t *testing.T) {
	r := NewRNG(17).Stream("exp")
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exponential(7)
	}
	if mean := sum / n; math.Abs(mean-7) > 0.15 {
		t.Errorf("mean = %.3f, want 7 +- 0.15", mean)
	}
}

func TestChoiceWeights(t *testing.T) {
	r := NewRNG(19).Stream("choice")
	counts := [3]int{}
	const n = 90000
	for i := 0; i < n; i++ {
		counts[r.Choice([]float64{1, 2, 0})]++
	}
	if counts[2] != 0 {
		t.Errorf("zero-weight option drawn %d times", counts[2])
	}
	got := float64(counts[1]) / float64(counts[0])
	if got < 1.9 || got > 2.1 {
		t.Errorf("weight-2 / weight-1 ratio = %.3f, want about 2", got)
	}
}

func TestChoicePanicsOnAllZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Choice with all-zero weights did not panic")
		}
	}()
	NewRNG(1).Choice([]float64{0, 0})
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(29).Stream("bool")
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.28 || frac > 0.32 {
		t.Errorf("P(true) = %.4f, want about 0.3", frac)
	}
}

// quickSelectMedian returns the median by sorting a copy (test helper; n is
// odd in all callers).
func quickSelectMedian(v []float64) float64 {
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	return c[len(c)/2]
}

// TestStreamDisjointInterleaving is the stream-disjointness property the
// per-phone engine's determinism rests on: interleaving draws from
// different label-derived streams in any cross-stream order — as the
// scheduler interleaves the phone goroutines — cannot move a single draw
// within any one stream. Here two consumers draw from three streams in
// different global orders and must see identical per-stream sequences.
func TestStreamDisjointInterleaving(t *testing.T) {
	labels := []string{"shadow", "interf", "draws"}
	const perStream = 64

	drawAll := func(order func(draw func(stream int))) [][]float64 {
		root := NewRNG(77)
		streams := make([]*RNG, len(labels))
		for i, l := range labels {
			streams[i] = root.Stream("phone", l)
		}
		got := make([][]float64, len(labels))
		order(func(s int) { got[s] = append(got[s], streams[s].NormFloat64()) })
		return got
	}

	// Order A: stream-major (all of stream 0, then all of stream 1, ...).
	a := drawAll(func(draw func(int)) {
		for s := range labels {
			for k := 0; k < perStream; k++ {
				draw(s)
			}
		}
	})
	// Order B: round-robin across streams.
	b := drawAll(func(draw func(int)) {
		for k := 0; k < perStream; k++ {
			for s := range labels {
				draw(s)
			}
		}
	})
	for s := range labels {
		for k := 0; k < perStream; k++ {
			if a[s][k] != b[s][k] {
				t.Fatalf("stream %q draw %d: %v != %v under reordering",
					labels[s], k, a[s][k], b[s][k])
			}
		}
	}
}
