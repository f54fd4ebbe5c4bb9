package dataset

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// quoteF is the uncached float field encoding that rowEnc.quoteF memoizes:
// the exact-half fast path, else AppendFloat('g', -1).
func quoteF(dst []byte, v float64) []byte {
	if out, ok := quoteHalf(dst, v); ok {
		return out
	}
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

// TestQuoteFMatchesAppendFloat pins quoteF's exact-half fast path to
// strconv.AppendFloat('g', -1, 64). The CSV byte stream (and through it
// every golden dataset hash) depends on the two never diverging, so the
// sweep covers every half in the fast-path range, both signs, the 1e6
// boundary where 'g' switches to e-notation, and a storm of random floats
// that must all take the slow path unchanged.
func TestQuoteFMatchesAppendFloat(t *testing.T) {
	check := func(v float64) {
		t.Helper()
		want := strconv.AppendFloat(nil, v, 'g', -1, 64)
		got := quoteF(nil, v)
		if string(want) != string(got) {
			t.Fatalf("quoteF(%v) = %q, AppendFloat = %q", v, got, want)
		}
	}

	// Every exact half with |v| < 1e6+1: the whole fast-path domain plus
	// the first values past the e-notation boundary.
	for u := int64(0); u <= 2_000_002; u++ {
		v := float64(u) / 2
		check(v)
		check(-v)
	}

	// Specials and near-misses.
	for _, v := range []float64{
		0, math.Copysign(0, -1), 0.25, -0.25, 0.75, 1e6, 1e6 + 0.5, -1e6,
		1e21, 1.5e15, math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
	} {
		check(v)
	}

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500_000; i++ {
		check(rng.NormFloat64() * 1000)
		check(math.Float64frombits(rng.Uint64()))
	}
}
