package transport

import "math"

// PathState is the end-to-end path condition for one simulation tick, as
// seen by a transfer in one direction.
type PathState struct {
	CapBps    float64 // radio capacity available in the transfer direction
	BaseRTTms float64 // access + wire + inflation, excluding own queueing
	Outage    bool    // no service (dead zone or handover execution)
}

// Path produces the evolving path state; the campaign adapts a UE plus a
// server selection into this interface.
type Path interface {
	Step(dt float64) PathState
}

// TickSec is the transport simulation tick (exported for the campaign lanes, which must tick at exactly this cadence). It is not exactly representable
// in binary floating point, so the runner loops drive time from an integer
// tick index (t = i*TickSec, one correctly-rounded multiply) instead of
// accumulating t += TickSec, whose rounding error compounds with every tick
// and can shift a 500 ms sample boundary by one tick late in a long test.
const TickSec = 0.02

// SampleIntervalSec matches XCAL's 500 ms application-layer throughput
// logging (§5).
const SampleIntervalSec = 0.5

// BulkResult is the outcome of one nuttcp-style bulk transfer test.
type BulkResult struct {
	SamplesBps     []float64 // application-layer throughput per 500 ms
	DeliveredBytes float64
	DurSec         float64
}

// MeanBps returns the test-level mean throughput (Fig. 9's per-test mean).
func (r BulkResult) MeanBps() float64 {
	if len(r.SamplesBps) == 0 {
		return 0
	}
	var sum float64
	for _, v := range r.SamplesBps {
		sum += v
	}
	return sum / float64(len(r.SamplesBps))
}

// StdFrac returns the standard deviation of the 500 ms samples as a
// fraction of the mean (Fig. 9's lower row), or 0 for an all-zero test.
func (r BulkResult) StdFrac() float64 {
	mean := r.MeanBps()
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, v := range r.SamplesBps {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(r.SamplesBps))) / mean
}

// BulkRunner is the step-wise form of RunBulk: one nuttcp-style bulk
// transfer whose tick loop is driven by the caller. RunBulkWith drives it
// from its own loop over a caller-owned runner (the campaign's per-phone
// test lane keeps one, so its samples buffer is reused across tests).
// The zero BulkRunner is ready after Reset.
type BulkRunner struct {
	Flow CubicFlow // by value: the flow state lives inside the runner

	samples    []float64
	durSec     float64
	window     float64 // bytes delivered in the current 500 ms
	nextSample float64
}

// Reset rewinds the runner for a fresh durSec-second transfer, keeping the
// samples backing array so a reused runner stops allocating once it has
// reached a test's working size.
func (b *BulkRunner) Reset(durSec float64) {
	b.Flow.Reset()
	b.samples = b.samples[:0]
	b.durSec = durSec
	b.window = 0
	b.nextSample = SampleIntervalSec
}

// Recycle returns a zero runner that keeps the samples capacity, for
// reuse across tests.
func (b *BulkRunner) Recycle() BulkRunner {
	return BulkRunner{samples: b.samples[:0]}
}

// Tick advances the transfer by one TickSec step; i is the zero-based tick
// index within the test (the sample boundary is computed from it, not from
// accumulated time, so boundaries stay drift-free).
func (b *BulkRunner) Tick(i int, st PathState) {
	cap := st.CapBps
	if st.Outage {
		cap = 0
	}
	b.window += b.Flow.Step(TickSec, cap, st.BaseRTTms)
	if float64(i+1)*TickSec >= b.nextSample {
		b.samples = append(b.samples, b.window*8/SampleIntervalSec)
		b.window = 0
		b.nextSample += SampleIntervalSec
	}
}

// Finish returns the transfer's result. SamplesBps aliases the runner's
// buffer and is valid until the next Reset.
func (b *BulkRunner) Finish() BulkResult {
	return BulkResult{
		SamplesBps:     b.samples,
		DeliveredBytes: b.Flow.DeliveredBytes(),
		DurSec:         b.durSec,
	}
}

// RunBulk runs a single-connection TCP CUBIC bulk transfer over the path
// for durSec seconds, sampling application-layer throughput every 500 ms
// exactly as the paper's nuttcp + XCAL setup does.
func RunBulk(p Path, durSec float64) BulkResult {
	var b BulkRunner
	return RunBulkWith(&b, p, durSec)
}

// RunBulkWith is RunBulk over a caller-owned (typically reused) runner.
func RunBulkWith(b *BulkRunner, p Path, durSec float64) BulkResult {
	b.Reset(durSec)
	for i := 0; float64(i)*TickSec < durSec; i++ {
		b.Tick(i, p.Step(TickSec))
	}
	return b.Finish()
}

// RunFluid is the idealized-transport baseline used by the ablation
// benches: it delivers exactly the link capacity at every instant, with no
// congestion control, no loss recovery, and no ramp-up. The gap between
// RunFluid and RunBulk is the share of the driving-throughput collapse
// attributable to TCP dynamics rather than the radio itself.
func RunFluid(p Path, durSec float64) BulkResult {
	res := BulkResult{DurSec: durSec}
	var window float64
	nextSample := SampleIntervalSec
	for i := 0; float64(i)*TickSec < durSec; i++ {
		st := p.Step(TickSec)
		if !st.Outage {
			window += st.CapBps / 8 * TickSec
			res.DeliveredBytes += st.CapBps / 8 * TickSec
		}
		if float64(i+1)*TickSec >= nextSample {
			res.SamplesBps = append(res.SamplesBps, window*8/SampleIntervalSec)
			window = 0
			nextSample += SampleIntervalSec
		}
	}
	return res
}

// RTTResult is the outcome of one ping test.
type RTTResult struct {
	SamplesMs []float64 // successful echo RTTs
	Sent      int
	Lost      int
}

// Mean returns the mean of the successful samples (0 if none).
func (r RTTResult) Mean() float64 {
	if len(r.SamplesMs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range r.SamplesMs {
		sum += v
	}
	return sum / float64(len(r.SamplesMs))
}

// RunRTT runs the paper's ping test: one ICMP echo every intervalSec for
// durSec seconds. Pings sent during an outage are lost.
func RunRTT(p Path, durSec, intervalSec float64) RTTResult {
	var res RTTResult
	// The next ping fires at Sent*intervalSec — counting sends instead of
	// accumulating nextPing += intervalSec keeps both sides of the
	// comparison drift-free for any interval.
	for i := 0; float64(i)*TickSec < durSec; i++ {
		st := p.Step(TickSec)
		if float64(i)*TickSec >= float64(res.Sent)*intervalSec {
			res.Sent++
			if st.Outage {
				res.Lost++
				continue
			}
			res.SamplesMs = append(res.SamplesMs, st.BaseRTTms)
		}
	}
	return res
}
