package transport

import (
	"math"
	"testing"
)

// spikePath delivers capacity only on the final tick of each 500 ms sample
// window (tick indices where (i+1)%25 == 0), so every correctly-placed
// sample contains exactly one spike. A sample boundary that drifts by even
// one tick moves a spike across the edge: one window reports zero and a
// neighbor reports double.
type spikePath struct{ i int }

func (p *spikePath) Step(dt float64) PathState {
	p.i++
	st := PathState{BaseRTTms: 30}
	if p.i%25 == 0 {
		st.CapBps = 1e6
	}
	return st
}

// TestFluidSampleBoundariesDriftFree pins the integer-tick loop contract:
// 500 ms sample boundaries fall on exactly the same tick index for the
// whole of a long test. The loops derive time as i*TickSec (one correctly
// rounded multiply); the accumulated t += TickSec form this replaced
// drifts, because 0.02 is not representable in binary floating point and
// its rounding error compounds — after about an hour of simulated time a
// boundary lands one tick late, which this test catches as a zero/double
// sample pair.
func TestFluidSampleBoundariesDriftFree(t *testing.T) {
	for _, durSec := range []float64{20, 600, 3600} {
		res := RunFluid(&spikePath{}, durSec)
		wantSamples := int(durSec / SampleIntervalSec)
		if len(res.SamplesBps) != wantSamples {
			t.Fatalf("durSec=%v: %d samples, want %d", durSec, len(res.SamplesBps), wantSamples)
		}
		// One 1e6-bps spike lasting one 0.02 s tick averaged over 0.5 s.
		want := 1e6 * TickSec / SampleIntervalSec
		for k, v := range res.SamplesBps {
			if math.Abs(v-want) > 1e-9 {
				t.Fatalf("durSec=%v sample %d = %v, want %v (boundary drifted across a spike tick)",
					durSec, k, v, want)
			}
		}
	}
}

// TestBulkSampleCountExact checks the same boundary contract on the real
// CUBIC runner: a bulk test of N seconds yields exactly N/0.5 samples, for
// short tests and for ones long enough that accumulated-time drift would
// have lost or gained a boundary.
func TestBulkSampleCountExact(t *testing.T) {
	for _, durSec := range []float64{20, 110, 3600} {
		res := RunBulk(&spikePath{}, durSec)
		if want := int(durSec / SampleIntervalSec); len(res.SamplesBps) != want {
			t.Errorf("durSec=%v: %d samples, want %d", durSec, len(res.SamplesBps), want)
		}
	}
}
