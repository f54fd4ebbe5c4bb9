package transport

import "math"

// TCP CUBIC constants (RFC 8312).
const (
	mssBytes  = 1448.0
	cubicC    = 0.4 // scaling constant, packets/s³
	cubicBeta = 0.7 // multiplicative decrease factor
	initCwnd  = 10  // packets
	minCwnd   = 2
	rtoMinSec = 1.0
	queueMinB = 65536.0 // minimum bottleneck buffer
	queueMs   = 60.0    // bottleneck buffer depth in ms at link rate
)

// CubicFlow is a fluid-model simulation of one TCP CUBIC connection over a
// time-varying bottleneck (the radio link), with a droptail queue,
// slow start, CUBIC window growth, fast recovery, and retransmission
// timeouts across outages. This is what turns raw link capacity into the
// application-layer throughput nuttcp reports: losses at capacity drops and
// slow post-loss ramp-up are a large part of why driving throughput is so
// much worse than static (Fig. 3).
type CubicFlow struct {
	cwnd     float64 // packets
	ssthresh float64
	wMax     float64 // packets, window before last reduction
	epochT   float64 // seconds since last loss event
	inSS     bool

	queueB    float64 // bottleneck queue occupancy, bytes
	srttSec   float64
	stalledS  float64 // time with zero delivery (RTO detection)
	sinceLoss float64 // time since the last window reduction
	delivered float64 // total bytes delivered

	// CUBIC K memo: K depends only on wMax, which changes once per loss
	// event, so the Cbrt is not recomputed every tick. The cached value is
	// exactly what cubicWindow would compute, so the window trajectory is
	// bit-identical with or without the memo.
	kWMax float64
	kVal  float64
	kInit bool
}

// NewCubicFlow returns a freshly started flow (slow start from initCwnd).
func NewCubicFlow() *CubicFlow {
	f := &CubicFlow{}
	f.Reset()
	return f
}

// Reset rewinds the flow to its freshly-started state (slow start from
// initCwnd), so a caller-owned flow can be reused across tests without
// reallocating.
func (f *CubicFlow) Reset() {
	*f = CubicFlow{
		cwnd:     initCwnd,
		ssthresh: math.Inf(1),
		inSS:     true,
		srttSec:  0.05,
	}
}

// DeliveredBytes returns cumulative goodput in bytes.
func (f *CubicFlow) DeliveredBytes() float64 { return f.delivered }

// pow3 is math.Pow(x, 3) for finite x, bit for bit: it performs exactly the
// arithmetic of package math's pure-Go pow squaring loop specialized to the
// exponent 3 (two iterations over the bits 0b11, no fractional part, so no
// Exp·Log), in the same order on the same values. Cubing is the hottest Pow
// call on the bulk path and the general-purpose entry spends most of its
// time classifying the exponent; TestPow3MatchesPow sweeps the equivalence.
// Note x*x*x is NOT a substitute: it rounds differently (x²·x vs the loop's
// renormalized mantissa products) and would shift the window trajectory and
// with it the emitted throughput bytes.
func pow3(x float64) float64 {
	a1 := 1.0
	ae := 0
	x1, xe := math.Frexp(x)
	// yi = 3 = 0b11: both loop iterations multiply into the accumulator.
	a1 *= x1
	ae += xe
	x1 *= x1
	xe <<= 1
	if x1 < .5 {
		x1 += x1
		xe--
	}
	a1 *= x1
	ae += xe
	return math.Ldexp(a1, ae)
}

// cubicWindow is the CUBIC window function W(t) = C(t-K)³ + Wmax.
func (f *CubicFlow) cubicWindow(t float64) float64 {
	if !f.kInit || f.wMax != f.kWMax {
		f.kVal = math.Cbrt(f.wMax * (1 - cubicBeta) / cubicC)
		f.kWMax, f.kInit = f.wMax, true
	}
	return cubicC*pow3(t-f.kVal) + f.wMax
}

// onLoss applies CUBIC's multiplicative decrease and starts a new epoch.
func (f *CubicFlow) onLoss() {
	f.wMax = f.cwnd
	f.cwnd *= cubicBeta
	if f.cwnd < minCwnd {
		f.cwnd = minCwnd
	}
	f.ssthresh = f.cwnd
	f.epochT = 0
	f.inSS = false
}

// onRTO collapses the window after a retransmission timeout (link outage).
func (f *CubicFlow) onRTO() {
	f.ssthresh = f.cwnd / 2
	if f.ssthresh < minCwnd {
		f.ssthresh = minCwnd
	}
	f.wMax = f.cwnd
	f.cwnd = minCwnd
	f.inSS = true
	f.epochT = 0
	f.stalledS = 0
}

// Step advances the flow by dt seconds over a bottleneck of capBps with a
// path base RTT of baseRTTms (propagation + access, excluding this flow's
// own queueing). It returns the bytes delivered during the step.
func (f *CubicFlow) Step(dt float64, capBps, baseRTTms float64) float64 {
	baseRTT := baseRTTms / 1000
	if capBps <= 1 {
		// Outage or handover execution: nothing delivered; queue holds.
		f.stalledS += dt
		if f.stalledS > max(rtoMinSec, 2*f.srttSec) {
			f.onRTO()
		}
		f.srttSec = baseRTT + 0.2 // ACK clock frozen; pessimistic estimate
		return 0
	}
	f.stalledS = 0

	queueCap := max(queueMinB, capBps/8*queueMs/1000)
	rtt := baseRTT + f.queueB/(capBps/8)
	f.srttSec = 0.8*f.srttSec + 0.2*rtt

	// Sending rate is window-limited: cwnd per RTT.
	sendBps := f.cwnd * mssBytes * 8 / rtt

	// The bottleneck serves capBps; excess fills the queue.
	arriveB := sendBps / 8 * dt
	serveB := capBps / 8 * dt
	deliveredB := min(arriveB+f.queueB, serveB)
	f.queueB += arriveB - deliveredB
	lost := false
	if f.queueB > queueCap {
		f.queueB = queueCap
		lost = true
	}
	if f.queueB < 0 {
		f.queueB = 0
	}
	f.delivered += deliveredB

	ackedPkts := deliveredB / mssBytes
	f.sinceLoss += dt
	// TCP reduces the window at most once per RTT per loss event: a full
	// queue persisting across ticks is one congestion episode, not many.
	if lost && f.sinceLoss > f.srttSec {
		f.onLoss()
		f.sinceLoss = 0
	} else if f.inSS {
		f.cwnd += ackedPkts // double per RTT
		if f.cwnd >= f.ssthresh {
			f.inSS = false
			f.wMax = f.cwnd
			f.epochT = 0
		}
	} else {
		f.epochT += dt
		target := f.cubicWindow(f.epochT)
		if target > f.cwnd {
			// Approach the CUBIC target over one RTT.
			f.cwnd += (target - f.cwnd) * min(1, dt/rtt)
		} else {
			f.cwnd += 0.5 * ackedPkts / f.cwnd // Reno-friendly floor
		}
	}
	return deliveredB
}
