// Package offload implements the canonical edge-assisted AR / CAV benchmark
// app the paper built for challenge C4 (§7.1, §C): an uplink-centric client
// that offloads camera frames (AR) or LIDAR point clouds (CAV) to a GPU
// server in a best-effort manner — compress, upload, infer, download,
// decompress — and measures end-to-end offloading latency, offloaded frame
// rate, and (for AR) object detection accuracy via the paper's measured
// latency→mAP mapping (Table 5).
package offload

import (
	"wheels/internal/apps"
	"wheels/internal/radio"
)

// Config captures Table 4's application parameters.
type Config struct {
	Name        string
	FPS         float64 // camera / LIDAR frame rate
	RawKB       float64 // uncompressed frame size
	CompKB      float64 // compressed frame size
	CompressMs  float64 // frame compression time
	InferMs     float64 // server inference time (Nvidia A100)
	DecompMs    float64 // server-side decompression time
	ResultKB    float64 // detection results returned to the client
	DurSec      float64 // duration of one run
	HasAccuracy bool    // AR reports mAP; CAV reports latency only
}

// ARConfig returns the AR app configuration (Table 4, AR column).
func ARConfig() Config {
	return Config{
		Name: "AR", FPS: 30, RawKB: 450, CompKB: 50,
		CompressMs: 6.3, InferMs: 24.9, DecompMs: 1.0,
		ResultKB: 8, DurSec: 20, HasAccuracy: true,
	}
}

// CAVConfig returns the CAV app configuration (Table 4, CAV column).
func CAVConfig() Config {
	return Config{
		Name: "CAV", FPS: 10, RawKB: 2000, CompKB: 38,
		CompressMs: 34.8, InferMs: 44.0, DecompMs: 19.1,
		ResultKB: 8, DurSec: 20, HasAccuracy: false,
	}
}

// FrameMs returns the frame interval in ms.
func (c Config) FrameMs() float64 { return 1000 / c.FPS }

// Result is the outcome of one 20 s offloading run.
type Result struct {
	E2EMs       []float64 // per completed offload, capture → result
	OffloadFPS  float64   // completed offloads per second
	MedianE2EMs float64
	MAP         float64 // AR only; 0 when Config.HasAccuracy is false
}

// stage is the pipeline position of the in-flight offload.
type stage int

const (
	idle stage = iota
	compressing
	uploading
	inferring
	downloading
	decompressing
)

// Run simulates one best-effort offloading run over the network path.
// When compressed is false the raw frame is uploaded and the compression
// and decompression stages are skipped. localTracking selects the paper's
// on-device tracker, which reuses the last server result between offloads;
// the latency→mAP mapping of Table 5 was measured with it on (§C.2), so
// disabling it (the ablation) applies the mapping at doubled staleness.
func Run(net apps.Net, cfg Config, compressed, localTracking bool) Result {
	return run(net, cfg, compressed, localTracking, false)
}

// RunPipelined is the extension ablation: instead of the paper's strictly
// serialized best-effort pipeline (one frame in flight at a time),
// compression of the next frame overlaps the upload of the current one —
// the kind of app-level optimization §8 recommendation 1 asks for. Only
// the compression stage overlaps; the uplink still serializes transfers.
func RunPipelined(net apps.Net, cfg Config, compressed, localTracking bool) Result {
	return run(net, cfg, compressed, localTracking, true)
}

func run(net apps.Net, cfg Config, compressed, localTracking, pipelined bool) Result {
	const dt = apps.TickSec
	frameInterval := 1 / cfg.FPS

	var (
		st          = idle
		stageLeftMs float64 // remaining time in a timed stage
		bytesLeft   float64 // remaining transfer bytes in a network stage
		captureT    float64 // capture time of the frame in flight
		lastFrameT  = -frameInterval
		res         Result
	)
	for t := 0.0; t < cfg.DurSec; t += dt {
		// A transfer stage reads its direction's capacity once the
		// one-way delay has elapsed; every other tick reads none.
		var need radio.Need
		if stageLeftMs <= 0 {
			switch st {
			case uploading:
				need = radio.NeedUL
			case downloading:
				need = radio.NeedDL
			}
		}
		ns := net.Step(dt, need)
		if t >= lastFrameT+frameInterval {
			lastFrameT += frameInterval * float64(int((t-lastFrameT)/frameInterval))
		}
		switch st {
		case idle:
			// Best effort: grab the most recent frame and start.
			captureT = lastFrameT
			if compressed && !pipelined {
				st = compressing
				stageLeftMs = cfg.CompressMs
			} else if compressed {
				// Pipelined: this frame was compressed while the previous
				// one was in flight, so upload starts immediately.
				st = uploading
				bytesLeft = cfg.CompKB * 1024
				stageLeftMs = ns.RTTms / 2
			} else {
				st = uploading
				bytesLeft = cfg.RawKB * 1024
				// One-way latency before first byte arrives at the server.
				stageLeftMs = ns.RTTms / 2
			}
		case compressing:
			stageLeftMs -= dt * 1000
			if stageLeftMs <= 0 {
				st = uploading
				bytesLeft = cfg.CompKB * 1024
				stageLeftMs = ns.RTTms / 2
			}
		case uploading:
			if stageLeftMs > 0 {
				stageLeftMs -= dt * 1000
				break
			}
			if !ns.Outage {
				bytesLeft -= ns.CapULbps / 8 * dt
			}
			if bytesLeft <= 0 {
				st = inferring
				stageLeftMs = cfg.InferMs
				if compressed {
					stageLeftMs += cfg.DecompMs // server-side decompression
				}
			}
		case inferring:
			stageLeftMs -= dt * 1000
			if stageLeftMs <= 0 {
				st = downloading
				bytesLeft = cfg.ResultKB * 1024
				stageLeftMs = ns.RTTms / 2
			}
		case downloading:
			if stageLeftMs > 0 {
				stageLeftMs -= dt * 1000
				break
			}
			if !ns.Outage {
				bytesLeft -= ns.CapDLbps / 8 * dt
			}
			if bytesLeft <= 0 {
				res.E2EMs = append(res.E2EMs, (t-captureT)*1000)
				st = idle
			}
		}
	}
	res.OffloadFPS = float64(len(res.E2EMs)) / cfg.DurSec
	res.MedianE2EMs = apps.Median(res.E2EMs)
	if cfg.HasAccuracy {
		res.MAP = meanMAP(res.E2EMs, cfg.FrameMs(), compressed, localTracking)
	}
	return res
}

// meanMAP averages the Table 5 accuracy over completed offloads. Without
// local tracking, results go stale twice as fast (the tracker is what keeps
// boxes attached to moving objects between server responses).
func meanMAP(e2es []float64, frameMs float64, compressed, localTracking bool) float64 {
	if len(e2es) == 0 {
		return 0
	}
	var sum float64
	for _, ms := range e2es {
		frames := ms / frameMs
		if !localTracking {
			frames *= 2
		}
		sum += MAPForLatency(frames, compressed)
	}
	return sum / float64(len(e2es))
}
