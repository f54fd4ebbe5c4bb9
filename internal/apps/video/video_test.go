package video

import (
	"testing"

	"wheels/internal/apps"
	"wheels/internal/radio"
)

// sessionSec is the paper's playback session length (§D.1: 3 minutes).
const sessionSec = 180.0

type constNet struct{ dl, rtt float64 }

func (n constNet) Step(float64, radio.Need) apps.NetState {
	return apps.NetState{CapDLbps: n.dl, CapULbps: n.dl / 10, RTTms: n.rtt}
}

type varNet struct {
	t    float64
	good bool
}

// varNet alternates 5 s of 60 Mbps with 5 s of 1 Mbps.
func (n *varNet) Step(dt float64, need radio.Need) apps.NetState {
	n.t += dt
	cap := 1e6
	if int(n.t/5)%2 == 0 {
		cap = 60e6
	}
	return apps.NetState{CapDLbps: cap, RTTms: 60}
}

func TestBestStaticQoE(t *testing.T) {
	// §7.2: the best static run scores 96.29 with a theoretical max of 100.
	res := Run(constNet{dl: 1500e6, rtt: 15}, sessionSec)
	if res.QoE < 90 || res.QoE > 100 {
		t.Errorf("best-static QoE = %.2f, want about 96", res.QoE)
	}
	if res.RebufFrac > 0.02 {
		t.Errorf("best-static rebuffering = %.3f, want ~0", res.RebufFrac)
	}
	if res.AvgBitrate < 90 {
		t.Errorf("best-static avg bitrate = %.1f Mbps, want near 100", res.AvgBitrate)
	}
}

func TestStarvedLinkRebuffers(t *testing.T) {
	// Capacity below the lowest rung: the session is mostly rebuffering
	// and QoE goes deeply negative (Fig. 15a shows rebuffering up to 87%).
	res := Run(constNet{dl: 2e6, rtt: 80}, sessionSec)
	if res.RebufFrac < 0.4 {
		t.Errorf("rebuffer fraction on a 2 Mbps link = %.2f, want > 0.4", res.RebufFrac)
	}
	if res.QoE >= 0 {
		t.Errorf("QoE on a starved link = %.1f, want negative", res.QoE)
	}
}

func TestModerateLinkPicksMiddleRungs(t *testing.T) {
	res := Run(constNet{dl: 30e6, rtt: 50}, sessionSec)
	if res.AvgBitrate < 5 || res.AvgBitrate > 50 {
		t.Errorf("avg bitrate on a 30 Mbps link = %.1f, want between rungs", res.AvgBitrate)
	}
	if res.RebufFrac > 0.2 {
		t.Errorf("rebuffering on a 30 Mbps link = %.2f, want small", res.RebufFrac)
	}
}

func TestFluctuatingLinkSwitches(t *testing.T) {
	res := Run(&varNet{}, sessionSec)
	if res.Switches == 0 {
		t.Error("no bitrate switches on a strongly fluctuating link")
	}
	better := Run(constNet{dl: 60e6, rtt: 60}, sessionSec)
	if res.QoE >= better.QoE {
		t.Errorf("fluctuating-link QoE %.1f not below stable-link %.1f", res.QoE, better.QoE)
	}
}

func TestBBAChoice(t *testing.T) {
	if bbaChoose(0) != 0 || bbaChoose(ReservoirSec) != 0 {
		t.Error("buffer at/below reservoir should pick the lowest rung")
	}
	if bbaChoose(ReservoirSec+CushionSec) != len(Ladder)-1 {
		t.Error("buffer above cushion should pick the top rung")
	}
	if got := bbaChoose(ReservoirSec + CushionSec/2); got <= 0 || got >= len(Ladder)-1 {
		t.Errorf("mid-buffer rung = %d, want interior", got)
	}
	prev := 0
	for b := 0.0; b < 25; b += 0.25 {
		cur := bbaChoose(b)
		if cur < prev {
			t.Fatalf("BBA rung decreased as buffer grew at %v s", b)
		}
		prev = cur
	}
}

func TestQoEFormula(t *testing.T) {
	// One clean 100 Mbps chunk after another: QoE approaches 100, less the
	// BBA startup ramp (which weighs more in a short 60 s session).
	res := Run(constNet{dl: 5000e6, rtt: 1}, 60)
	if res.QoE < 75 {
		t.Errorf("near-ideal QoE = %.2f", res.QoE)
	}
	if res.Chunks < 20 {
		t.Errorf("only %d chunks in 60 s", res.Chunks)
	}
}

func TestZeroChunkSession(t *testing.T) {
	res := Run(constNet{dl: 1, rtt: 50}, 10)
	if res.Chunks != 0 {
		t.Fatalf("chunks on a dead link = %d", res.Chunks)
	}
	if res.QoE >= 0 {
		t.Error("dead-link session QoE not negative")
	}
	if res.RebufFrac < 0.95 {
		t.Errorf("dead-link rebuffer fraction = %.2f, want ~1", res.RebufFrac)
	}
}
