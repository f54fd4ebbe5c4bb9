package transport

import (
	"math"
	"testing"

	"wheels/internal/radio"
	"wheels/internal/sim"
)

// constPath is a fixed-capacity, fixed-RTT path for unit tests.
type constPath struct {
	cap float64
	rtt float64
}

func (p constPath) Step(float64) PathState {
	return PathState{CapBps: p.cap, BaseRTTms: p.rtt}
}

// outagePath injects an outage window into a constant path.
type outagePath struct {
	constPath
	t          float64
	start, end float64
}

func (p *outagePath) Step(dt float64) PathState {
	st := p.constPath.Step(dt)
	if p.t >= p.start && p.t < p.end {
		st.Outage = true
	}
	p.t += dt
	return st
}

func TestCubicConvergesToCapacity(t *testing.T) {
	for _, capMbps := range []float64{10, 100, 800} {
		res := RunBulk(constPath{cap: capMbps * 1e6, rtt: 40}, 30)
		util := res.MeanBps() / (capMbps * 1e6)
		if util < 0.70 || util > 1.01 {
			t.Errorf("cap %v Mbps: utilization = %.2f, want 0.70-1.01", capMbps, util)
		}
	}
}

func TestCubicSlowStartRampsQuickly(t *testing.T) {
	res := RunBulk(constPath{cap: 50e6, rtt: 40}, 30)
	// By the 4th 500 ms sample the flow should already be near capacity.
	if len(res.SamplesBps) < 10 {
		t.Fatalf("got %d samples", len(res.SamplesBps))
	}
	if res.SamplesBps[3] < 20e6 {
		t.Errorf("sample 4 = %.1f Mbps, slow start too slow", res.SamplesBps[3]/1e6)
	}
	// And the first sample should be well below the later steady state.
	if res.SamplesBps[0] >= res.SamplesBps[20] {
		t.Error("no ramp-up visible: first sample >= steady state")
	}
}

func TestCubicRespectsRTTFairnessShape(t *testing.T) {
	// Longer base RTT must not produce higher throughput at equal capacity.
	short := RunBulk(constPath{cap: 200e6, rtt: 15}, 30).MeanBps()
	long := RunBulk(constPath{cap: 200e6, rtt: 120}, 30).MeanBps()
	if long > short*1.05 {
		t.Errorf("RTT 120 ms throughput %.0f above RTT 15 ms %.0f", long, short)
	}
}

func TestOutageCausesRTOAndRecovery(t *testing.T) {
	p := &outagePath{constPath: constPath{cap: 50e6, rtt: 40}, start: 10, end: 13}
	res := RunBulk(p, 30)
	// Samples during the outage window must be ~zero.
	outageSample := res.SamplesBps[int(11/SampleIntervalSec)]
	if outageSample > 1e5 {
		t.Errorf("throughput during outage = %.0f bps, want ~0", outageSample)
	}
	// The flow must recover afterwards.
	tail := res.SamplesBps[len(res.SamplesBps)-4:]
	var recovered float64
	for _, v := range tail {
		recovered += v / float64(len(tail))
	}
	if recovered < 20e6 {
		t.Errorf("post-outage throughput = %.1f Mbps, flow did not recover", recovered/1e6)
	}
	// Recovery is not instantaneous: the first post-outage sample should be
	// below steady state (RTO collapsed the window).
	first := res.SamplesBps[27] // ~13.6 s, just after the outage ends
	if first > 45e6 {
		t.Errorf("first post-outage sample = %.1f Mbps; RTO collapse missing", first/1e6)
	}
}

func TestBulkSampleCount(t *testing.T) {
	res := RunBulk(constPath{cap: 10e6, rtt: 50}, 30)
	if got := len(res.SamplesBps); got != 60 {
		t.Errorf("30 s test produced %d samples, want 60 (500 ms cadence)", got)
	}
	if res.DeliveredBytes <= 0 {
		t.Error("no bytes delivered")
	}
	if res.StdFrac() < 0 {
		t.Error("negative std fraction")
	}
}

func TestBulkMeanMatchesSamples(t *testing.T) {
	res := RunBulk(constPath{cap: 25e6, rtt: 30}, 20)
	var sum float64
	for _, v := range res.SamplesBps {
		sum += v
	}
	if math.Abs(res.MeanBps()-sum/float64(len(res.SamplesBps))) > 1 {
		t.Error("MeanBps inconsistent with samples")
	}
}

func TestAccessRTTOrdering(t *testing.T) {
	// Fig. 4: mmWave < mid < LTE-A < 5G-low ≈< LTE on access latency.
	if !(AccessRTTms(radio.NRmmW) < AccessRTTms(radio.NRMid) &&
		AccessRTTms(radio.NRMid) < AccessRTTms(radio.LTEA) &&
		AccessRTTms(radio.LTEA) < AccessRTTms(radio.NRLow) &&
		AccessRTTms(radio.NRLow) <= AccessRTTms(radio.LTE)) {
		t.Error("access RTT ordering does not match Fig. 4")
	}
}

func TestLatencyModelSpeedEffect(t *testing.T) {
	meanRTT := func(op radio.Operator, mph float64) float64 {
		m := NewLatencyModel(sim.NewRNG(23).Stream("lat"), op)
		var sum float64
		const n = 5000
		for i := 0; i < n; i++ {
			sum += m.RTTms(0.5, radio.LTEA, 20, mph)
		}
		return sum / n
	}
	// Verizon and T-Mobile RTT grows with speed (Fig. 8)...
	for _, op := range []radio.Operator{radio.Verizon, radio.TMobile} {
		if fast, slow := meanRTT(op, 70), meanRTT(op, 5); fast < slow+10 {
			t.Errorf("%v: RTT at 70 mph (%.0f) not well above 5 mph (%.0f)", op, fast, slow)
		}
	}
	// ...AT&T's barely does.
	if fast, slow := meanRTT(radio.ATT, 70), meanRTT(radio.ATT, 5); fast > slow+15 {
		t.Errorf("AT&T: speed effect too strong (%.0f vs %.0f)", fast, slow)
	}
}

func TestLatencyModelStaticHasNoSpikes(t *testing.T) {
	m := NewLatencyModel(sim.NewRNG(23).Stream("lat2"), radio.Verizon)
	for i := 0; i < 20000; i++ {
		rtt := m.RTTms(0.5, radio.NRmmW, 3, 0)
		if rtt > 200 {
			t.Fatalf("static RTT spiked to %.0f ms; spikes are driving-only", rtt)
		}
	}
}

func TestLatencyModelDrivingHasHeavyTail(t *testing.T) {
	m := NewLatencyModel(sim.NewRNG(23).Stream("lat3"), radio.TMobile)
	maxRTT := 0.0
	for i := 0; i < 40000; i++ {
		if rtt := m.RTTms(0.5, radio.LTE, 30, 65); rtt > maxRTT {
			maxRTT = rtt
		}
	}
	// Fig. 3b: driving RTTs reach seconds.
	if maxRTT < 500 {
		t.Errorf("max driving RTT = %.0f ms, want heavy tail beyond 500", maxRTT)
	}
	if maxRTT > 3500 {
		t.Errorf("max driving RTT = %.0f ms, want capped below ~3.5 s", maxRTT)
	}
}

func TestCubicDeterminism(t *testing.T) {
	a := RunBulk(constPath{cap: 77e6, rtt: 33}, 10)
	b := RunBulk(constPath{cap: 77e6, rtt: 33}, 10)
	for i := range a.SamplesBps {
		if a.SamplesBps[i] != b.SamplesBps[i] {
			t.Fatal("CUBIC fluid model is not deterministic")
		}
	}
}

func TestFluidBaselineDominatesCubic(t *testing.T) {
	// The idealized transport is an upper bound on what CUBIC can deliver.
	p1 := &outagePath{constPath: constPath{cap: 80e6, rtt: 60}, start: 8, end: 11}
	p2 := &outagePath{constPath: constPath{cap: 80e6, rtt: 60}, start: 8, end: 11}
	fluid := RunFluid(p1, 30)
	cubic := RunBulk(p2, 30)
	if cubic.MeanBps() > fluid.MeanBps()*1.001 {
		t.Errorf("CUBIC mean %.1f exceeded the fluid bound %.1f", cubic.MeanBps()/1e6, fluid.MeanBps()/1e6)
	}
	if fluid.MeanBps() < 60e6 {
		t.Errorf("fluid mean = %.1f Mbps over an 80 Mbps link with a 3 s outage", fluid.MeanBps()/1e6)
	}
	if got := len(fluid.SamplesBps); got != 60 {
		t.Errorf("fluid samples = %d, want 60", got)
	}
}

func TestSpeedTestBeatsSingleConnectionOnLossyLink(t *testing.T) {
	// A link with periodic outages: parallel flows recover independently,
	// so the multi-connection test reports more than a single flow.
	mk := func() *outagePath {
		return &outagePath{constPath: constPath{cap: 100e6, rtt: 60}, start: 10, end: 12}
	}
	st := RunSpeedTest(mk(), 30, SpeedTestConns)
	single := RunBulk(mk(), 30)
	if st.MeanBps < single.MeanBps() {
		t.Errorf("8-connection mean %.1f below single-connection %.1f Mbps",
			st.MeanBps/1e6, single.MeanBps()/1e6)
	}
	if st.PeakBps < st.MeanBps {
		t.Errorf("peak %.1f below mean %.1f", st.PeakBps/1e6, st.MeanBps/1e6)
	}
	if st.PeakBps > 101e6 {
		t.Errorf("peak %.1f exceeds link capacity", st.PeakBps/1e6)
	}
}

func TestSpeedTestUtilization(t *testing.T) {
	st := RunSpeedTest(constPath{cap: 200e6, rtt: 50}, 20, SpeedTestConns)
	if util := st.PeakBps / 200e6; util < 0.85 || util > 1.01 {
		t.Errorf("speed test peak utilization = %.2f, want near 1", util)
	}
	if st.Conns != SpeedTestConns {
		t.Errorf("conns = %d", st.Conns)
	}
}

// TestSpeedTestAllocsIndependentOfDuration pins RunSpeedTest's allocations
// per test, not per tick: doubling the duration doubles the ticks but may
// add only the sample slice's extra growth steps.
func TestSpeedTestAllocsIndependentOfDuration(t *testing.T) {
	p := constPath{cap: 200e6, rtt: 50}
	short := testing.AllocsPerRun(5, func() { RunSpeedTest(p, 15, SpeedTestConns) })
	long := testing.AllocsPerRun(5, func() { RunSpeedTest(p, 30, SpeedTestConns) })
	if long-short > 2 {
		t.Errorf("15 s test = %.0f allocs, 30 s test = %.0f: allocations grow with the tick count", short, long)
	}
}

func TestSpeedTestDegenerateInputs(t *testing.T) {
	st := RunSpeedTest(constPath{cap: 10e6, rtt: 50}, 0.1, 0)
	if st.Conns != 1 {
		t.Errorf("conns clamp failed: %d", st.Conns)
	}
	if len(st.SamplesBps) != 0 {
		t.Errorf("sub-interval test produced %d samples", len(st.SamplesBps))
	}
}

func TestBBRConvergesToCapacity(t *testing.T) {
	for _, capMbps := range []float64{10, 100, 800} {
		res := RunBulkBBR(constPath{cap: capMbps * 1e6, rtt: 40}, 30)
		util := res.MeanBps() / (capMbps * 1e6)
		if util < 0.80 || util > 1.01 {
			t.Errorf("BBR cap %v Mbps: utilization = %.2f, want 0.80-1.01", capMbps, util)
		}
	}
}

func TestBBRRecoversFasterThanCubicAfterOutage(t *testing.T) {
	mk := func() *outagePath {
		return &outagePath{constPath: constPath{cap: 300e6, rtt: 50}, start: 10, end: 13}
	}
	bbr := RunBulkBBR(mk(), 30)
	cubic := RunBulk(mk(), 30)
	// One second after the outage, BBR (rate-based) should be delivering
	// more than CUBIC (window collapsed by the RTO).
	idx := 28 // ~14 s
	if bbr.SamplesBps[idx] < cubic.SamplesBps[idx] {
		t.Errorf("post-outage: BBR %.1f Mbps < CUBIC %.1f Mbps at t=14s",
			bbr.SamplesBps[idx]/1e6, cubic.SamplesBps[idx]/1e6)
	}
	if bbr.MeanBps() < cubic.MeanBps() {
		t.Errorf("BBR overall %.1f below CUBIC %.1f on an outage-prone link",
			bbr.MeanBps()/1e6, cubic.MeanBps()/1e6)
	}
}

func TestBBRNeverExceedsCapacity(t *testing.T) {
	res := RunBulkBBR(constPath{cap: 50e6, rtt: 30}, 20)
	for i, v := range res.SamplesBps {
		if v > 50e6*1.001 {
			t.Fatalf("sample %d = %.1f Mbps exceeds the 50 Mbps link", i, v/1e6)
		}
	}
}

func TestBBRStartupExits(t *testing.T) {
	f := NewBBRFlow()
	for i := 0; i < 2000; i++ {
		f.Step(0.02, 80e6, 40)
	}
	if f.state != bbrProbeBW {
		t.Errorf("BBR still in STARTUP after 40 s on a stable link")
	}
}
