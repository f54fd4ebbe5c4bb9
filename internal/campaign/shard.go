package campaign

import (
	"wheels/internal/dataset"
	"wheels/internal/deploy"
	"wheels/internal/geo"
	"wheels/internal/radio"
	"wheels/internal/ran"
	"wheels/internal/servers"
	"wheels/internal/sim"
	"wheels/internal/transport"
)

// warmupSec is how long each shard worker's fresh UEs camp idle at the
// shard's first route position before measurements start, so mid-route
// shards open with settled RRC state instead of a cold attach.
const warmupSec = 30.0

// sharedTestbed is the immutable per-seed campaign substrate built once and
// reused by every shard worker: the seed-independent Testbed (route
// geometry, server registry) plus the seed-dependent drive trace and
// per-operator deployments. All of it is read-only after construction — a
// serial campaign already shares it across its phone goroutines — so
// workers can share it without copies. Everything here derives from the seed alone
// (never from the shard), which is what keeps the route and radio footprint
// identical across shard counts.
type sharedTestbed struct {
	route *geo.Route
	trace *geo.Trace
	reg   *servers.Registry
	deps  []*deploy.Deployment // indexed by operator
	ho    [radio.NumOperators]*ran.HandoverConfig

	scratch *scratchPool
}

func newSharedTestbed(cfg Config, tb *Testbed) *sharedTestbed {
	rng := sim.NewRNG(cfg.Seed)
	sh := &sharedTestbed{
		route: tb.Route,
		trace: newTrace(tb.Route, rng, cfg),
		reg:   tb.Reg,
		deps:  make([]*deploy.Deployment, radio.NumOperators),

		scratch: tb.scratch,
	}
	depKm := deployKmBound(sh.trace, cfg)
	for _, op := range radio.Operators() {
		sh.deps[op] = deploy.NewUpToDensity(tb.Route, op, rng.Stream("deploy"), depKm, tb.densityFor(op))
		sh.ho[op] = tb.handoverFor(op)
	}
	return sh
}

// newShardWorker builds the campaign worker for one shard over the route
// segment [startKm, stopKm). Every mutable part of the worker — UEs,
// latency models, static-link and handover-logger streams — draws from RNG
// streams keyed by (seed, shard, subsystem, operator), so a shard's draw
// sequence is self-contained and independent of when (or whether) other
// shards run.
func newShardWorker(cfg Config, sh *sharedTestbed, shard int, startKm, stopKm float64) *Campaign {
	cfg.Progress = nil // per-day progress is a serial-run concept
	rng := sim.NewRNG(cfg.Seed).Shard(shard)
	c := &Campaign{
		Cfg:     cfg,
		Route:   sh.route,
		Trace:   sh.trace,
		Reg:     sh.reg,
		rng:     rng,
		startKm: startKm,
		stopKm:  stopKm,
		scratch: sh.scratch,
	}
	for _, op := range radio.Operators() {
		dep := sh.deps[op]
		c.hoCfg[op] = sh.ho[op]
		c.phones = append(c.phones, &phone{
			op:  op,
			dep: dep,
			ue:  ran.NewUEWithConfig(rng.Stream("test-phone"), dep, sh.ho[op]),
			lat: transport.NewLatencyModel(rng.Stream("latency"), op),
		})
	}
	return c
}

// RunSharded splits the campaign's route into `shards` contiguous
// equal-length segments and runs each as an independent worker, at most
// `workers` concurrently (0 means GOMAXPROCS). The shard datasets merge in
// route order with a stable test-id renumbering pass.
//
// Contract: the merged dataset is a pure function of (Config, shards) —
// the same seed and shard count produce a bit-identical dataset regardless
// of workers, GOMAXPROCS, or scheduling. Different shard counts (including
// shards <= 1, which falls back to the serial engine) produce datasets
// that differ sample-by-sample but agree on every qualitative shape
// invariant in EXPERIMENTS.md; see README "Sharded execution".
//
// cfg.Progress is ignored: per-day progress reporting is inherently serial.
func RunSharded(cfg Config, shards, workers int) *dataset.Dataset {
	col := dataset.NewCollector(cfg.Seed)
	RunShardedTo(cfg, shards, workers, col)
	return col.Dataset()
}

// RunShardedTo is the streaming form of RunSharded: shard workers still
// materialize their own route segment (a shard must finish before its
// records may follow the previous shard's), but the merged stream flows
// into sink through a Renumber wrapper as each shard completes, and each
// shard's buffer is released as soon as it has been replayed. Live memory
// is therefore O(in-flight shards), not O(campaign). Like RunTo it does not
// call sink.Flush; the sink's owner does.
func RunShardedTo(cfg Config, shards, workers int, sink dataset.Sink) {
	NewTestbed().RunShardedTo(cfg, shards, workers, sink)
}
