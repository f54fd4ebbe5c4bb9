package fleet

import (
	"runtime"
	"testing"

	"wheels/internal/analysis"
	"wheels/internal/campaign"
	"wheels/internal/dataset"
	"wheels/internal/radio"
	"wheels/internal/ran"
)

// BenchmarkFleet runs a reduced three-seed fleet per iteration and reports
// the two capacity numbers CI tracks in BENCH_fleet.json: seeds/hour
// (scheduling + reduction throughput) and heap-delta/seed, a peak-RSS
// proxy showing the dataset really is dropped after reduction. It runs the
// scalar oracle engine, the engine its committed baseline was taken on.
func BenchmarkFleet(b *testing.B) {
	base := campaign.QuickConfig(0, 40)
	base.Engine = campaign.EngineScalar
	cfg := Config{
		Base:      base,
		StartSeed: 23,
		Seeds:     3,
		Workers:   2,
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.GC()
	runtime.ReadMemStats(&after)
	seeds := float64(cfg.Seeds * b.N)
	b.ReportMetric(seeds/b.Elapsed().Hours(), "seeds/hour")
	// Live-heap growth across the whole benchmark, amortized per seed: if
	// datasets leaked past reduction this would be tens of MB, not ~zero.
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if growth < 0 {
		growth = 0
	}
	b.ReportMetric(float64(growth)/seeds/1e6, "live-MB/seed")
}

// BenchmarkFleetBatch is BenchmarkFleet on the production engine, the
// per-phone timeline engine — identical workload, identical output bytes
// (the differential harness in internal/campaign proves it), different
// scheduling. CI gates its seeds/hour against the committed scalar
// BenchmarkFleet baseline and pins its live-MB/seed like the other fleet
// benches: the engine's buffers are parked on the fleet's testbed, never
// in package state, so it must hold no live heap once a fleet returns.
func BenchmarkFleetBatch(b *testing.B) {
	base := campaign.QuickConfig(0, 40)
	base.Engine = campaign.EngineBatch
	cfg := Config{
		Base:      base,
		StartSeed: 23,
		Seeds:     3,
		Workers:   2,
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.GC()
	runtime.ReadMemStats(&after)
	seeds := float64(cfg.Seeds * b.N)
	b.ReportMetric(seeds/b.Elapsed().Hours(), "seeds/hour")
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if growth < 0 {
		growth = 0
	}
	b.ReportMetric(float64(growth)/seeds/1e6, "live-MB/seed")
}

// BenchmarkSweep runs a two-policy grid (default + a sticky variant) over
// a reduced seed range per iteration and reports configs/hour: completed
// (scenario, policy) cells per hour, the capacity number fleet -grid
// planning divides by. The policy axis shares one testbed's route and
// registry across cells — only the Handover array differs — so the
// marginal cost of a grid row over a plain fleet is the campaigns
// themselves, which is exactly what this benchmark pins. Like
// BenchmarkFleet it runs the scalar engine of its committed baseline.
func BenchmarkSweep(b *testing.B) {
	tb := campaign.NewTestbed()
	sticky := *tb
	for _, op := range radio.Operators() {
		hc := ran.DefaultHandoverConfig(op)
		hc.HysteresisFrac = 0.20
		hc.EvalMinSec, hc.EvalMaxSec = 14, 24
		sticky.Handover[op] = hc
	}
	base := campaign.QuickConfig(0, 40)
	base.Engine = campaign.EngineScalar
	cfg := Config{
		Base: base,
		Scenarios: []Scenario{
			{Name: "paper", PolicyName: "baseline", Testbed: tb},
			{Name: "paper", PolicyName: "sticky", Testbed: &sticky},
		},
		StartSeed: 23,
		Seeds:     2,
		Workers:   2,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.PolicySweeps()) != 1 {
			b.Fatalf("expected one policy sweep in the report, got %d", len(rep.PolicySweeps()))
		}
	}
	b.StopTimer()
	cells := float64(len(cfg.Scenarios) * b.N)
	b.ReportMetric(cells/b.Elapsed().Hours(), "configs/hour")
	b.ReportMetric(float64(cfg.Seeds)*cells/b.Elapsed().Hours(), "seeds/hour")
}

// benchSeedConfig is the per-seed campaign the streaming-vs-materialized
// pair below measures: long enough (320 km, passive loggers on) that the
// record volume dominates the substrate both paths share. It runs the
// scalar engine the committed baselines of both benches were taken on.
func benchSeedConfig(seed int64) campaign.Config {
	cfg := campaign.QuickConfig(seed, 320)
	cfg.EnablePassive = true
	cfg.Engine = campaign.EngineScalar
	return cfg
}

// liveHeapMB forces a GC and returns the live-heap growth over base in MB.
func liveHeapMB(base uint64) float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if m.HeapAlloc < base {
		return 0
	}
	return float64(m.HeapAlloc-base) / 1e6
}

// heapBase reads the GC-settled live heap before a seed starts.
func heapBase() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// BenchmarkFleetMaterialized measures the pre-streaming per-seed shape:
// run the campaign to a full in-memory dataset, then reduce. live-MB/seed
// is the live heap at the hold point between the two — the finished
// campaign plus the complete dataset, the peak a fleet worker used to
// carry.
func BenchmarkFleetMaterialized(b *testing.B) {
	var peakSum float64
	sums := make([]SeedSummary, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := heapBase()
		c := campaign.New(benchSeedConfig(int64(23 + i%3)))
		ds := c.Run()
		peakSum += liveHeapMB(base)
		runtime.KeepAlive(c)
		sums = append(sums, Reduce(ds))
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Hours(), "seeds/hour")
	b.ReportMetric(peakSum/float64(b.N), "live-MB/seed")
	runtime.KeepAlive(sums)
}

// BenchmarkFleetStreaming measures the same seeds through the streaming
// reduction: records flow into the Accumulator + HashSink as they are
// produced and are never materialized. live-MB/seed is the live heap at the
// equivalent hold point — the finished campaign plus the reduction state —
// and is the number the CI bench gate pins against BENCH_fleet.json.
func BenchmarkFleetStreaming(b *testing.B) {
	var peakSum float64
	sums := make([]SeedSummary, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := benchSeedConfig(int64(23 + i%3))
		base := heapBase()
		c := campaign.New(cfg)
		acc := analysis.NewAccumulator(cfg.Seed)
		h := dataset.NewHashSink()
		sink := dataset.Tee(acc, h)
		c.RunTo(sink)
		if err := sink.Flush(); err != nil {
			b.Fatal(err)
		}
		peakSum += liveHeapMB(base)
		runtime.KeepAlive(c)
		sums = append(sums, summarize(acc, h.Sum(), "paper"))
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Hours(), "seeds/hour")
	b.ReportMetric(peakSum/float64(b.N), "live-MB/seed")
	runtime.KeepAlive(sums)
}

// BenchmarkSeedSummary measures summarize alone, the reduction a fleet
// worker runs on one core after each seed: shape verdicts, road-class
// quantiles and per-operator headlines over the accumulator of one 200 km
// QuickConfig seed (the perfbench fleet-network workload's seeds). The
// accumulator is fed once, outside the timer; every iteration reads it in
// full. Its name stays clear of the gated BenchmarkFleet|BenchmarkSweep
// regex: it is reported, not gated.
func BenchmarkSeedSummary(b *testing.B) {
	cfg := campaign.QuickConfig(1001, 200)
	cfg.Engine = campaign.EngineBatch
	acc := analysis.NewAccumulator(cfg.Seed)
	campaign.New(cfg).RunTo(acc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seedSummarySink = summarize(acc, "", "paper")
	}
}

// seedSummarySink keeps BenchmarkSeedSummary's result live.
var seedSummarySink SeedSummary
