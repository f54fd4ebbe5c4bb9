package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"wheels/internal/campaign"
	"wheels/internal/dataset"
	"wheels/internal/fleet"
)

// minCoverage is the share of traced seed wall time the spans must
// attribute to construction, a phase or a sink member.
const minCoverage = 0.95

// phaseNames and sinkNames are the attributed layers, in report order.
var (
	phaseNames = []string{"ar", "cav", "video", "gaming", "bulk", "rtt", "speedtest", "static", "passive"}
	sinkNames  = []string{"accumulate", "hash", "csv"}
	testKinds  = []dataset.TestKind{dataset.TestBulkDL, dataset.TestBulkUL, dataset.TestRTT, dataset.TestSpeed,
		dataset.TestAR, dataset.TestCAV, dataset.TestVideo, dataset.TestGaming}
)

// runTraced is the per-layer run. After the cold start it drives each trace
// seed twice: untraced through the same public calls (the reference for
// tracing overhead and the runtime counters), then traced with every Tee
// member wrapped and the phase clock outside them. On fleet workloads it
// then runs the trace seeds through fleet.Run with only its Configure and
// Progress hooks timed, for the fleet's own per-seed and per-run costs.
func runTraced(o *options) (result, *checker, *Recorder, error) {
	chk, err := newChecker(o.W.Name, expectedJSON, os.Stderr)
	if err != nil {
		return result{}, nil, nil, err
	}
	work := filepath.Join(o.Out, fmt.Sprintf("work-%d", os.Getpid()))
	defer os.RemoveAll(work)
	s, _, err := coldStart(o, chk, work)
	if err != nil {
		return result{}, nil, nil, err
	}
	jobs := s.traceJobs()
	n := float64(len(jobs))

	// Each seed runs untraced, then traced, so both see the same host; the
	// reference after each pair tells how fast the host ran.
	ref := newReference(o.W.RefThreads)
	ref.run()
	var refMs []float64
	rec := NewRecorder()
	run := rec.Begin(-1, "run", o.W.Name, rec.Now())
	var (
		untraced  time.Duration
		seedMs    []float64
		rt        [3]float64 // runtime counters over the untraced runs
		counts    SinkCounts
		dumpBytes int64
	)
	for _, j := range jobs {
		rt0 := runtimeSample()
		t := time.Now()
		dump, dir, err := s.openDump(j)
		var res seedResult
		if err == nil {
			res, err = o.W.runDirect(s.red, j.cell, j.seed, dump)
		}
		d := time.Since(t)
		rt1 := runtimeSample()
		for i := range rt {
			rt[i] += rt1[i] - rt0[i]
		}
		untraced += d
		seedMs = append(seedMs, float64(d)/1e6)
		chk.check(res, err)
		if dir != "" {
			os.RemoveAll(dir)
		}

		res, c, size, err := s.traceSeed(rec, run, j)
		chk.check(res, err)
		counts.add(c)
		dumpBytes += size
		refMs = append(refMs, ref.run().Seconds()*1e3)
	}

	// On fleet workloads the fleet's own per-seed times, hook to hook,
	// replace the direct loop's.
	var overheadMs, reportMs []float64
	if o.W.Fleet {
		seedMs, overheadMs, reportMs = s.fleetPass(rec, run)
	}
	rec.End(run, rec.Now())

	// Self times by span name, and the seeds' coverage.
	self := rec.SelfTimes()
	byName := map[string]float64{}
	var seedWall, seedSelf float64
	for i, sp := range rec.Spans {
		byName[sp.Name] += float64(self[i])
		if sp.Name == "seed" {
			seedWall += float64(sp.End - sp.Start)
			seedSelf += float64(self[i])
		}
	}
	coverage := (seedWall - seedSelf) / seedWall

	m := map[string]metric{}
	for _, p := range phaseNames {
		m["phase."+p+"_ms"] = metric{byName["phase."+p] / 1e6 / n, "ms"}
	}
	for _, k := range sinkNames {
		m["sink."+k+"_ms"] = metric{byName["sink."+k] / 1e6 / n, "ms"}
	}
	m["dataset.csv_gz_mb"] = metric{float64(dumpBytes) / mb / n, "MB"}
	m["campaign.new_ms"] = metric{byName["construct"] / 1e6 / n, "ms"}
	m["scenario.compile_ms"] = metric{float64(s.compile) / 1e6, "ms"}
	tailMs, tailPct := tail(seedMs)
	m["fleet.seed_ms_p50"] = metric{median(seedMs), "ms"}
	m["fleet.seed_ms_tail"] = metric{tailMs, "ms"}
	m["fleet.seed_ms_tail_pct"] = metric{tailPct, "pct"}
	m["fleet.seed_samples"] = metric{float64(len(seedMs)), "count"}
	m["fleet.overhead_ms"] = metric{mean(overheadMs), "ms"}
	m["fleet.report_ms"] = metric{mean(reportMs), "ms"}
	m["runtime.gc_cpu_s"] = metric{rt[0] / n, "s"}
	m["runtime.gc_cycles"] = metric{rt[1] / n, "count"}
	m["runtime.mallocs"] = metric{rt[2] / n, "count"}
	for i, name := range tableNames {
		m["records."+name] = metric{float64(counts.Records[i]) / n, "count"}
	}
	for _, k := range testKinds {
		m["tests."+string(k)] = metric{float64(counts.Tests[k]) / n, "count"}
	}
	m["host.ref_ms"] = metric{median(refMs), "ms"}
	m["trace.coverage"] = metric{coverage, "ratio"}
	m["trace.overhead_frac"] = metric{seedWall/float64(untraced) - 1, "ratio"}

	res := result{Correct: chk.Failed == 0, Attempted: chk.Attempted, Failed: chk.Failed, Metrics: m}
	if coverage < minCoverage {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: trace coverage %.4f is below %.2f\n", coverage, minCoverage)
	}
	fmt.Printf("traced %d seeds: untraced %.3f s, traced %.3f s, coverage %.4f\n",
		len(jobs), untraced.Seconds(), seedWall/1e9, coverage)
	return res, chk, rec, nil
}

// traceSeed runs one seed with the phase clock outside a Tee of timed
// members, under a "seed" span keyed by scenario, policy and seed. It
// returns the seed's output, its sink counts and its dump size in bytes.
func (s *bench) traceSeed(rec *Recorder, parent int, j seedJob) (seedResult, SinkCounts, int64, error) {
	key := fmt.Sprintf("%s/%s/%d", j.cell.Name, j.cell.PolicyName, j.seed)
	seed := rec.Begin(parent, "seed", key, rec.Now())
	s.red.reset(j.cell, j.seed)
	members := []Member{{"accumulate", s.red.acc}, {"hash", s.red.h}}
	t := rec.Now()
	dump, dir, err := s.openDump(j)
	if err != nil {
		rec.End(seed, rec.Now())
		return s.red.result(j.cell, j.seed), SinkCounts{}, 0, err
	}
	if dump != nil {
		rec.Add(seed, "sink.csv", t, rec.Now())
		members = append(members, Member{"csv", dump})
	}

	t = rec.Now()
	camp := campaign.NewWithTestbed(s.o.W.seedConfig(j.cell, j.seed), j.cell.Testbed)
	rec.Add(seed, "construct", t, rec.Now())
	clk := NewPhaseClock(rec, seed, members...)
	clk.Start()
	camp.RunTo(clk)
	err = clk.Flush()
	rec.End(seed, rec.Now())

	res := s.red.result(j.cell, j.seed)
	var size int64
	if dir != "" {
		var serr error
		if size, serr = dirBytes(dir); serr != nil && err == nil {
			err = serr
		}
		os.RemoveAll(dir)
	}
	return res, clk.Counts, size, err
}

// fleetPass runs the trace seeds through fleet.Run block by block, timing
// each seed from its Configure hook (just before construction) to its
// Progress event (just after the checkpoint append), and each run's report
// rendering. It returns the per-seed times and, per run, the fleet's
// overhead outside its seeds and the rendering time, all in ms.
func (s *bench) fleetPass(rec *Recorder, parent int) (seedMs, overheadMs, reportMs []float64) {
	w := s.o.W
	for b := 0; b < w.TraceBlocks; b++ {
		dir, err := s.scratch("fleet")
		if err != nil {
			s.chk.failAll(len(s.cells)*w.Block, err)
			continue
		}
		run := rec.Begin(parent, "fleet.run", "", rec.Now())
		var seedStart int64
		cells := append([]fleet.Scenario(nil), s.cells...)
		for i := range cells {
			configure := cells[i].Configure
			cells[i].Configure = func(c campaign.Config) campaign.Config {
				seedStart = rec.Now()
				return configure(c)
			}
		}
		cfg := w.fleetConfig(cells, w.blockStart(s.o.Seed, s.o.HeldOut, b, w.TraceBlocks), dir)
		var seeds time.Duration
		cfg.Progress = func(ev fleet.Event) {
			end := rec.Now()
			rec.Add(run, "fleet.seed", seedStart, end)
			seeds += time.Duration(end - seedStart)
			seedMs = append(seedMs, float64(end-seedStart)/1e6)
		}
		rep, err := fleet.Run(cfg)
		t := rec.Now()
		if err == nil {
			err = renderReport(rep, dir)
		}
		end := rec.Now()
		rec.Add(run, "fleet.report", t, end)
		rec.End(run, end)
		s.checkFleet(rep, err, len(s.cells)*w.Block)
		sp := rec.Spans[run]
		overheadMs = append(overheadMs, float64(time.Duration(sp.End-sp.Start)-seeds-time.Duration(end-t))/1e6)
		reportMs = append(reportMs, float64(end-t)/1e6)
		os.RemoveAll(dir)
	}
	return seedMs, overheadMs, reportMs
}

// tail returns the highest percentile of xs with at least ten samples above
// it, and that percentile. With ten or fewer samples it is the minimum.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) - 10 // rank of the value with ten samples above it
	if k < 1 {
		k = 1
	}
	return s[k-1], 100 * float64(k) / float64(len(s))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// perLayerNames lists every per-layer metric a traced run prints.
func perLayerNames() []string {
	var out []string
	for _, p := range phaseNames {
		out = append(out, "phase."+p+"_ms")
	}
	for _, k := range sinkNames {
		out = append(out, "sink."+k+"_ms")
	}
	out = append(out, "dataset.csv_gz_mb", "campaign.new_ms", "scenario.compile_ms",
		"fleet.seed_ms_p50", "fleet.seed_ms_tail", "fleet.seed_ms_tail_pct", "fleet.seed_samples",
		"fleet.overhead_ms", "fleet.report_ms",
		"runtime.gc_cpu_s", "runtime.gc_cycles", "runtime.mallocs")
	for _, t := range tableNames {
		out = append(out, "records."+t)
	}
	for _, k := range testKinds {
		out = append(out, "tests."+string(k))
	}
	return append(out, "host.ref_ms", "trace.coverage", "trace.overhead_frac")
}
