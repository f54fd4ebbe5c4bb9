package fleet

import (
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"wheels/internal/analysis"
	"wheels/internal/campaign"
	"wheels/internal/dataset"
	"wheels/internal/scenario"
)

// BenchmarkFleetBatch runs a reduced three-seed fleet per iteration on the
// production engine (network tests only, the first 40 km) and reports the
// two capacity numbers CI gates in BENCH_fleet.json: seeds/hour and
// live-MB/seed, the cross-run leak check. The engine parks its buffers on
// the fleet's testbed, never in package state, so a fleet that has
// returned must hold no live heap.
func BenchmarkFleetBatch(b *testing.B) {
	base := campaign.QuickConfig(0, 40)
	base.Engine = campaign.EngineBatch
	benchFleet(b, base)
}

// BenchmarkFleetFull is BenchmarkFleetBatch on the paper's full
// methodology (bulk/RTT, the speed test, the four apps, the static city
// batteries and the passive loggers) over the first 120 km, so the gated
// ledger covers the battery the paper ran and not only its network tests.
func BenchmarkFleetFull(b *testing.B) {
	base := campaign.DefaultConfig(0)
	base.Engine = campaign.EngineBatch
	base.KmLimit = 120
	benchFleet(b, base)
}

// benchFleet runs seeds 23-25 of base through Run with two workers per
// iteration and reports seeds/hour and the live-heap growth across the
// whole benchmark per seed: if datasets leaked past reduction this would
// be tens of MB, not ~zero.
func benchFleet(b *testing.B, base campaign.Config) {
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

// BenchmarkFleetStreaming measures one seed per iteration through the
// streaming reduction: records flow into the Accumulator + HashSink as they
// are produced and are never materialized. live-MB/seed is the live heap at
// the hold point after the seed, the finished campaign plus the reduction
// state, and CI gates it against BENCH_fleet.json.
func BenchmarkFleetStreaming(b *testing.B) {
	// 320 km with passive loggers on, so the record volume dominates the
	// substrate, on the scalar engine its committed baseline was taken on.
	cfg := campaign.QuickConfig(0, 320)
	cfg.EnablePassive = true
	cfg.Engine = campaign.EngineScalar
	var peakSum float64
	sums := make([]SeedSummary, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(23 + i%3)
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
// full. It is reported, not gated.
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

// BenchmarkDumpSeed measures the dump layer alone: writing one seed's
// records through the writer of cmd/fleet -dump-dir, with one compression
// worker. The seed has the shape of a perfbench sweep-dump seed (network
// tests without the speed test, passive loggers and static batteries, the
// first 35 km of the dense-urban scenario, seed 2001) and is collected
// once, outside the timer; every iteration emits it into a fresh writer
// and flushes it, so CSV encoding, deflate at gzipLevel and the file
// writes are all inside the op. It reports the CSV bytes written per op as
// its throughput and the gzip bytes as gz-bytes/op. It is reported, not
// gated.
func BenchmarkDumpSeed(b *testing.B) {
	sc, err := scenario.Resolve("dense-urban")
	if err != nil {
		b.Fatal(err)
	}
	tb, err := sc.Compile()
	if err != nil {
		b.Fatal(err)
	}
	cfg := campaign.DefaultConfig(2001)
	cfg.Engine = campaign.EngineBatch
	cfg.EnableApps = false
	cfg.EnableSpeedTest = false
	cfg.KmLimit = 35
	col := dataset.NewCollector(cfg.Seed)
	campaign.NewWithTestbed(sc.ApplySchedule(cfg), tb).RunTo(col)
	ds := col.Dataset()

	dump := func(dir string) {
		w, err := dataset.NewParallelCSVWriter(dir, 1, 0)
		if err != nil {
			b.Fatal(err)
		}
		ds.EmitTo(w)
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	dir := b.TempDir()
	dump(dir)
	csvBytes, gzBytes := dumpSizes(b, dir)
	b.SetBytes(csvBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dump(b.TempDir())
	}
	b.StopTimer()
	b.ReportMetric(float64(gzBytes), "gz-bytes/op")
}

// dumpSizes returns the decompressed and the compressed size of the
// <table>.csv.gz files in dir.
func dumpSizes(b *testing.B, dir string) (csv, gz int64) {
	b.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.csv.gz"))
	if err != nil || len(files) == 0 {
		b.Fatalf("no gzip tables in %s (%v)", dir, err)
	}
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			b.Fatal(err)
		}
		st, err := f.Stat()
		if err != nil {
			b.Fatal(err)
		}
		gz += st.Size()
		zr, err := gzip.NewReader(f)
		if err != nil {
			b.Fatal(err)
		}
		n, err := io.Copy(io.Discard, zr)
		f.Close()
		if err != nil {
			b.Fatal(err)
		}
		csv += n
	}
	return csv, gz
}
