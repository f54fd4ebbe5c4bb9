// Package video implements the paper's 360° video streaming evaluation
// (§7.2, §D): a Puffer-style streaming server with the client running the
// buffer-based ABR algorithm BBA, 2-second chunks encoded at four quality
// levels (100/50/10/5 Mbps), 3-minute sessions, and the control-theoretic
// QoE metric QoE_k = B_k − λ|B_k − B_{k−1}| − μ·T_k with λ = 1, μ = 100.
package video

import (
	"wheels/internal/apps"
	"wheels/internal/radio"
)

// Bitrate ladder in Mbps (§D.1) and chunk length in seconds.
var Ladder = []float64{5, 10, 50, 100}

const (
	ChunkSec = 2.0
	// QoE weights (§D.1, following Yin et al.).
	LambdaQoE = 1.0
	MuQoE     = 100.0
	// BBA reservoir and cushion (seconds of buffer): below the reservoir
	// the client requests the lowest quality; above reservoir+cushion the
	// highest; linear in between.
	ReservoirSec = 5.0
	CushionSec   = 10.0
	// MaxBufferSec caps the client buffer; the client pauses requests when
	// the buffer is full.
	MaxBufferSec = 20.0
)

// Result is the outcome of one streaming session (Fig. 15's metrics).
type Result struct {
	QoE        float64 // average per-chunk QoE
	RebufFrac  float64 // rebuffering time / session duration
	AvgBitrate float64 // Mbps, average of downloaded chunk bitrates
	Chunks     int
	Switches   int // bitrate changes between consecutive chunks
}

// bbaChoose maps the current buffer level to a ladder rung.
func bbaChoose(bufferSec float64) int {
	if bufferSec <= ReservoirSec {
		return 0
	}
	if bufferSec >= ReservoirSec+CushionSec {
		return len(Ladder) - 1
	}
	frac := (bufferSec - ReservoirSec) / CushionSec
	idx := int(frac * float64(len(Ladder)))
	if idx >= len(Ladder) {
		idx = len(Ladder) - 1
	}
	return idx
}

// tickSec is the video simulation tick; chunk downloads are long compared
// to the offload app's stages, so a coarser tick loses nothing.
const tickSec = 0.02

// Run plays one session over the path and returns the QoE metrics.
func Run(net apps.Net, durSec float64) Result {
	const dt = tickSec
	var (
		res        Result
		buffer     float64 // seconds of video buffered
		playing    bool    // false while rebuffering (or during startup)
		rebufSec   float64
		lastRate   float64 = -1
		qoeSum     float64
		chunkRebuf float64 // rebuffering attributed to the chunk in flight
		inFlight   bool
		rung       int
		bytesLeft  float64
		rttLeftMs  float64
	)
	for t := 0.0; t < durSec; t += dt {
		// Only a chunk past its request round trip reads the capacity.
		var need radio.Need
		if inFlight && rttLeftMs <= 0 {
			need = radio.NeedDL
		}
		ns := net.Step(dt, need)

		// Playback consumes buffer; stalls when it runs dry.
		if playing {
			buffer -= dt
			if buffer <= 0 {
				buffer = 0
				playing = false
			}
		}
		if !playing {
			rebufSec += dt
			chunkRebuf += dt
			if buffer >= ChunkSec { // enough to resume
				playing = true
			}
		}

		// Chunk download state machine.
		if !inFlight {
			if buffer < MaxBufferSec-ChunkSec {
				rung = bbaChoose(buffer)
				bytesLeft = Ladder[rung] * 1e6 / 8 * ChunkSec
				rttLeftMs = ns.RTTms // request round trip
				chunkRebuf = 0
				inFlight = true
			}
			continue
		}
		if rttLeftMs > 0 {
			rttLeftMs -= dt * 1000
			continue
		}
		if !ns.Outage {
			bytesLeft -= ns.CapDLbps / 8 * dt
		}
		if bytesLeft <= 0 {
			inFlight = false
			buffer += ChunkSec
			rate := Ladder[rung]
			res.Chunks++
			res.AvgBitrate += rate
			q := rate - MuQoE*chunkRebuf
			if lastRate >= 0 {
				q -= LambdaQoE * abs(rate-lastRate)
				if rate != lastRate {
					res.Switches++
				}
			}
			qoeSum += q
			lastRate = rate
		}
	}
	if res.Chunks > 0 {
		res.QoE = qoeSum / float64(res.Chunks)
		res.AvgBitrate /= float64(res.Chunks)
	} else {
		// A session that never completed a chunk is all rebuffering.
		res.QoE = -MuQoE * durSec
	}
	res.RebufFrac = rebufSec / durSec
	return res
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
