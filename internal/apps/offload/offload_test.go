package offload

import (
	"math"
	"testing"

	"wheels/internal/apps"
	"wheels/internal/radio"
)

// constNet is a fixed network path for unit tests.
type constNet struct {
	dl, ul, rtt float64
}

func (n constNet) Step(float64, radio.Need) apps.NetState {
	return apps.NetState{CapDLbps: n.dl, CapULbps: n.ul, RTTms: n.rtt}
}

// outageNet drops to zero capacity during [start, end).
type outageNet struct {
	constNet
	t          float64
	start, end float64
}

func (n *outageNet) Step(dt float64, need radio.Need) apps.NetState {
	st := n.constNet.Step(dt, need)
	if n.t >= n.start && n.t < n.end {
		st.Outage = true
		st.CapDLbps, st.CapULbps = 0, 0
	}
	n.t += dt
	return st
}

// bestStatic approximates the paper's best static scenario: mmWave to an
// edge server (UL ~167 Mbps, RTT ~15 ms).
var bestStatic = constNet{dl: 1500e6, ul: 167e6, rtt: 15}

func TestARBestStaticMatchesPaper(t *testing.T) {
	// §7.1.1: best static, no compression: E2E ~68 ms, ~12.5 FPS, mAP 36.5.
	res := Run(bestStatic, ARConfig(), false, true)
	if res.MedianE2EMs < 50 || res.MedianE2EMs > 90 {
		t.Errorf("AR best-static E2E = %.0f ms, want about 68", res.MedianE2EMs)
	}
	if res.OffloadFPS < 10 || res.OffloadFPS > 16 {
		t.Errorf("AR best-static FPS = %.1f, want about 12.5", res.OffloadFPS)
	}
	if res.MAP < 34 || res.MAP > 38.5 {
		t.Errorf("AR best-static mAP = %.1f, want about 36.5", res.MAP)
	}
}

func TestARCompressionReducesLatency(t *testing.T) {
	// Driving-grade uplink (10 Mbps): compression must slash E2E latency
	// and raise both FPS and accuracy (Fig. 13 discussion, observation 4).
	driving := constNet{dl: 30e6, ul: 10e6, rtt: 70}
	raw := Run(driving, ARConfig(), false, true)
	comp := Run(driving, ARConfig(), true, true)
	if comp.MedianE2EMs >= raw.MedianE2EMs/2 {
		t.Errorf("compressed E2E %.0f not well below raw %.0f", comp.MedianE2EMs, raw.MedianE2EMs)
	}
	if comp.OffloadFPS <= raw.OffloadFPS {
		t.Errorf("compressed FPS %.1f not above raw %.1f", comp.OffloadFPS, raw.OffloadFPS)
	}
	if comp.MAP <= raw.MAP {
		t.Errorf("compressed mAP %.1f not above raw %.1f", comp.MAP, raw.MAP)
	}
}

func TestCAVCannotMeet100ms(t *testing.T) {
	// §7.1.2: even the best case fails the 100 ms CAV budget; the paper's
	// lowest recorded E2E was 148 ms.
	res := Run(bestStatic, CAVConfig(), true, true)
	if res.MedianE2EMs < 100 {
		t.Errorf("CAV compressed best-static E2E = %.0f ms; paper shows >= 148", res.MedianE2EMs)
	}
	// Compression still helps by ~8x at driving uplink rates (Fig. 14a).
	driving := constNet{dl: 30e6, ul: 9e6, rtt: 70}
	raw := Run(driving, CAVConfig(), false, true)
	comp := Run(driving, CAVConfig(), true, true)
	ratio := raw.MedianE2EMs / comp.MedianE2EMs
	if ratio < 4 || ratio > 16 {
		t.Errorf("CAV compression latency ratio = %.1fx, want around 8x", ratio)
	}
}

func TestCAVReportsNoAccuracy(t *testing.T) {
	res := Run(bestStatic, CAVConfig(), true, true)
	if res.MAP != 0 {
		t.Errorf("CAV run reported mAP %.1f; only AR estimates accuracy", res.MAP)
	}
}

func TestLocalTrackingAblation(t *testing.T) {
	driving := constNet{dl: 30e6, ul: 10e6, rtt: 70}
	with := Run(driving, ARConfig(), true, true)
	without := Run(driving, ARConfig(), true, false)
	if without.MAP >= with.MAP {
		t.Errorf("mAP without local tracking (%.1f) not below with (%.1f)", without.MAP, with.MAP)
	}
	// Latency itself is unaffected; only accuracy degrades.
	if math.Abs(without.MedianE2EMs-with.MedianE2EMs) > 1e-9 {
		t.Error("local tracking changed E2E latency; it only affects accuracy")
	}
}

func TestOutageStallsPipeline(t *testing.T) {
	n := &outageNet{constNet: constNet{dl: 50e6, ul: 20e6, rtt: 50}, start: 5, end: 9}
	res := Run(n, ARConfig(), true, true)
	// Some offload spans the outage and records a multi-second E2E.
	maxE2E := 0.0
	for _, v := range res.E2EMs {
		if v > maxE2E {
			maxE2E = v
		}
	}
	if maxE2E < 2000 {
		t.Errorf("max E2E across a 4 s outage = %.0f ms, want > 2000", maxE2E)
	}
	// And the run completes fewer offloads than an outage-free one.
	clean := Run(constNet{dl: 50e6, ul: 20e6, rtt: 50}, ARConfig(), true, true)
	if res.OffloadFPS >= clean.OffloadFPS {
		t.Error("outage did not reduce offloaded FPS")
	}
}

func TestMAPTableProperties(t *testing.T) {
	// Within the table, accuracy is non-increasing with latency except for
	// the two small measured inversions the paper reports (bins 9→10 and
	// 24→25); never below the floor; compressed ≤ uncompressed at bin 0.
	prev := MAPForLatency(0, false)
	for b := 1; b < 40; b++ {
		cur := MAPForLatency(float64(b), false)
		if cur > prev+0.5 {
			t.Errorf("mAP rose sharply at bin %d: %.2f -> %.2f", b, prev, cur)
		}
		prev = cur
	}
	if MAPForLatency(0, true) != MAPForLatency(0, false) {
		t.Error("bin 0 accuracy should match with and without compression (38.45)")
	}
	if MAPForLatency(500, false) != mapFloor {
		t.Errorf("very stale accuracy = %v, want floor %v", MAPForLatency(500, false), mapFloor)
	}
	if MAPForLatency(-3, true) != mapComp[0] {
		t.Error("negative latency did not clamp to bin 0")
	}
	if MAPForLatency(2.5, false) != 36.04 {
		t.Errorf("bin lookup at 2.5 frame times = %v, want 36.04 (Table 5 row 2-3)", MAPForLatency(2.5, false))
	}
}

func TestConfigsMatchTable4(t *testing.T) {
	ar, cav := ARConfig(), CAVConfig()
	if ar.FPS != 30 || ar.RawKB != 450 || ar.CompKB != 50 || ar.CompressMs != 6.3 ||
		ar.InferMs != 24.9 || ar.DecompMs != 1.0 || ar.DurSec != 20 {
		t.Errorf("AR config deviates from Table 4: %+v", ar)
	}
	if cav.FPS != 10 || cav.RawKB != 2000 || cav.CompKB != 38 || cav.CompressMs != 34.8 ||
		cav.InferMs != 44.0 || cav.DecompMs != 19.1 || cav.DurSec != 20 {
		t.Errorf("CAV config deviates from Table 4: %+v", cav)
	}
}

func TestRunDeterminism(t *testing.T) {
	a := Run(bestStatic, ARConfig(), true, true)
	b := Run(bestStatic, ARConfig(), true, true)
	if a.MedianE2EMs != b.MedianE2EMs || a.OffloadFPS != b.OffloadFPS {
		t.Error("identical runs diverged")
	}
}

func TestPipelinedOverlapsCompression(t *testing.T) {
	driving := constNet{dl: 30e6, ul: 10e6, rtt: 70}
	serial := Run(driving, CAVConfig(), true, true)
	pipe := RunPipelined(driving, CAVConfig(), true, true)
	// CAV's 34.8 ms compression overlaps the previous upload, so the
	// pipelined variant completes more offloads at lower E2E.
	if pipe.OffloadFPS <= serial.OffloadFPS {
		t.Errorf("pipelined FPS %.2f not above serial %.2f", pipe.OffloadFPS, serial.OffloadFPS)
	}
	if pipe.MedianE2EMs >= serial.MedianE2EMs {
		t.Errorf("pipelined E2E %.0f not below serial %.0f", pipe.MedianE2EMs, serial.MedianE2EMs)
	}
	// Without compression the two are identical: nothing to overlap.
	a := Run(driving, ARConfig(), false, true)
	b := RunPipelined(driving, ARConfig(), false, true)
	if a.MedianE2EMs != b.MedianE2EMs || a.OffloadFPS != b.OffloadFPS {
		t.Error("pipelining changed the uncompressed pipeline")
	}
}
