// Package gaming models the paper's cloud-gaming evaluation (§7.3, §E):
// Steam Remote Play streaming a 4K/60FPS game from a GPU cloud instance to
// the phone. The platform's bitrate adapter targets up to 100 Mbps and
// adapts the frame rate downward to keep the frame-drop rate low even at
// the cost of very high latency — the behaviour the paper calls out in
// observation (2) of §7.3.
package gaming

import (
	"wheels/internal/apps"
	"wheels/internal/radio"
)

// Platform parameters (§E.1).
const (
	MaxBitrateMbps = 100.0 // bitrate adapter ceiling
	FullFPS        = 60.0
	MinFPS         = 15.0
	// Latency thresholds for frame-rate adaptation: above highLatencyMs the
	// platform sheds frame rate; below lowLatencyMs it restores it.
	highLatencyMs = 80.0
	lowLatencyMs  = 40.0
)

// Result is the outcome of one cloud-gaming session (Fig. 16's metrics).
type Result struct {
	SendBitrate  float64 // Mbps, median of the adapter's operating point
	NetLatencyMs float64 // median reported network latency
	FrameDrop    float64 // dropped frames / frames sent
	MedianFPS    float64
}

// tickSec is the gaming simulation tick (frame-scale).
const tickSec = 0.01

// Run plays one session over the path.
func Run(net apps.Net, durSec float64) Result {
	const dt = tickSec
	var (
		bitrate     = 30.0 // Mbps, adapter starting point
		fps         = FullFPS
		estCap      = 30.0 // Mbps, EWMA capacity estimate
		latEWMA     = 50.0
		backlogMbit float64
		sent        float64
		dropped     float64
		bitrates    []float64
		latencies   []float64
		fpsLog      []float64
		sampleAcc   float64
	)
	for t := 0.0; t < durSec; t += dt {
		ns := net.Step(dt, radio.NeedDL)
		capMbps := ns.CapDLbps / 1e6
		if ns.Outage {
			capMbps = 0
		}
		estCap = 0.97*estCap + 0.03*capMbps

		// Queuing-inflated latency: streaming above capacity backs up a
		// sender-side backlog that drains at link rate, so latency stays
		// elevated until well after each capacity dip.
		if bitrate > capMbps {
			backlogMbit += (bitrate - capMbps) * dt
		} else {
			backlogMbit -= (capMbps - bitrate) * dt
			if backlogMbit < 0 {
				backlogMbit = 0
			}
		}
		// The encoder discards stale frames rather than queueing without
		// bound, so the backlog saturates at about a second of video.
		if backlogMbit > bitrate {
			backlogMbit = bitrate
		}
		lat := ns.RTTms + backlogMbit/max(capMbps, 0.5)*500
		if lat > 1200 {
			lat = 1200
		}
		latEWMA = 0.95*latEWMA + 0.05*lat

		// Frame accounting: frames sent at the current fps; frames beyond
		// what the link can carry are dropped.
		frames := fps * dt
		sent += frames
		if capMbps < bitrate {
			lossFrac := 1 - capMbps/max(bitrate, 0.1)
			// The adapter's pacing hides most transient shortfall; only a
			// fraction of the gap materializes as dropped frames.
			dropped += frames * lossFrac * 0.25
		}

		// Bitrate adapter: track ~80% of estimated capacity, capped.
		target := 0.8 * estCap
		if target > MaxBitrateMbps {
			target = MaxBitrateMbps
		}
		if target < 1 {
			target = 1
		}
		bitrate += (target - bitrate) * dt / 1.0 // ~1 s adaptation constant

		// Frame-rate adaptation keeps drops low at the cost of latency.
		if latEWMA > highLatencyMs && fps > MinFPS {
			fps -= 30 * dt // shed ~30 FPS per second of sustained high latency
			if fps < MinFPS {
				fps = MinFPS
			}
		} else if latEWMA < lowLatencyMs && fps < FullFPS {
			fps += 15 * dt
			if fps > FullFPS {
				fps = FullFPS
			}
		}

		// Log once per 500 ms, like the server-side logs the paper scraped.
		sampleAcc += dt
		if sampleAcc >= 0.5 {
			sampleAcc = 0
			bitrates = append(bitrates, bitrate)
			latencies = append(latencies, lat)
			fpsLog = append(fpsLog, fps)
		}
	}
	res := Result{
		SendBitrate:  apps.Median(bitrates),
		NetLatencyMs: apps.Median(latencies),
		MedianFPS:    apps.Median(fpsLog),
	}
	if sent > 0 {
		res.FrameDrop = dropped / sent
	}
	return res
}

func max(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
