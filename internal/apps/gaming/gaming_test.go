package gaming

import (
	"testing"

	"wheels/internal/apps"
	"wheels/internal/radio"
)

// sessionSec is the paper's gaming session length.
const sessionSec = 60.0

type constNet struct{ dl, rtt float64 }

func (n constNet) Step(float64, radio.Need) apps.NetState {
	return apps.NetState{CapDLbps: n.dl, CapULbps: n.dl / 10, RTTms: n.rtt}
}

type squareNet struct{ t float64 }

// squareNet alternates 3 s of 80 Mbps with 5 s of 3 Mbps — a link spending
// most of its time under-provisioned.
func (n *squareNet) Step(dt float64, need radio.Need) apps.NetState {
	n.t += dt
	cap := 3e6
	if n.t-float64(int(n.t/8))*8 < 3 {
		cap = 80e6
	}
	return apps.NetState{CapDLbps: cap, RTTms: 55}
}

func TestBestStaticGaming(t *testing.T) {
	// §7.3: best static run reaches ~98.5 Mbps send bitrate, ~17 ms
	// latency, 0.5% frame drops.
	res := Run(constNet{dl: 1200e6, rtt: 17}, sessionSec)
	if res.SendBitrate < 85 || res.SendBitrate > 100 {
		t.Errorf("best-static bitrate = %.1f Mbps, want near the 100 cap", res.SendBitrate)
	}
	if res.NetLatencyMs > 30 {
		t.Errorf("best-static latency = %.0f ms, want near the 17 ms RTT", res.NetLatencyMs)
	}
	if res.FrameDrop > 0.01 {
		t.Errorf("best-static frame drop = %.3f, want ~0", res.FrameDrop)
	}
	if res.MedianFPS < 55 {
		t.Errorf("best-static FPS = %.0f, want 60", res.MedianFPS)
	}
}

func TestConstrainedLinkAdaptsDown(t *testing.T) {
	res := Run(constNet{dl: 20e6, rtt: 60}, sessionSec)
	if res.SendBitrate > 25 {
		t.Errorf("bitrate on a 20 Mbps link = %.1f, want adapted below capacity", res.SendBitrate)
	}
	if res.FrameDrop > 0.15 {
		t.Errorf("frame drop = %.2f; the adapter should keep drops low", res.FrameDrop)
	}
}

func TestFrameRateSacrificedForLatency(t *testing.T) {
	// The platform keeps the drop rate low by shedding frame rate when
	// latency is high (observation 2 of §7.3).
	res := Run(constNet{dl: 8e6, rtt: 150}, sessionSec)
	if res.MedianFPS >= FullFPS {
		t.Errorf("FPS on a high-latency link = %.0f, want reduced", res.MedianFPS)
	}
	if res.FrameDrop > 0.2 {
		t.Errorf("frame drop = %.2f even with frame-rate adaptation", res.FrameDrop)
	}
}

func TestFluctuatingLinkDropsFrames(t *testing.T) {
	fluct := Run(&squareNet{}, sessionSec)
	stable := Run(constNet{dl: 40e6, rtt: 55}, sessionSec)
	if fluct.FrameDrop <= stable.FrameDrop {
		t.Errorf("fluctuating link drop %.3f not above stable %.3f", fluct.FrameDrop, stable.FrameDrop)
	}
	if fluct.NetLatencyMs <= stable.NetLatencyMs {
		t.Errorf("fluctuating link latency %.0f not above stable %.0f", fluct.NetLatencyMs, stable.NetLatencyMs)
	}
}

func TestBitrateNeverExceedsCap(t *testing.T) {
	res := Run(constNet{dl: 5000e6, rtt: 10}, sessionSec)
	if res.SendBitrate > MaxBitrateMbps {
		t.Errorf("send bitrate %.1f exceeded the %v Mbps adapter cap", res.SendBitrate, MaxBitrateMbps)
	}
}

func TestDeterminism(t *testing.T) {
	a := Run(constNet{dl: 20e6, rtt: 60}, 20)
	b := Run(constNet{dl: 20e6, rtt: 60}, 20)
	if a != b {
		t.Error("identical gaming runs diverged")
	}
}
