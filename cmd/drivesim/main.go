// Command drivesim runs the full cross-country measurement campaign — the
// LA → Boston drive with three test phones, three handover-loggers, static
// city baselines, and the four killer apps — and streams the consolidated
// dataset to gzip CSV files as the records are produced.
//
// Usage:
//
//	drivesim [-scenario NAME] [-seed N] [-km N] [-out DIR]
//	         [-quick] [-video SEC] [-gaming SEC] [-progress]
//	         [-cpuprofile FILE] [-memprofile FILE]
//
// With no flags it reproduces the paper's full methodology (about 12 s of
// wall time and under 100 MB of peak RSS on two cores); -quick runs network
// tests only over the first 200 km, or the first -km N when given.
// -scenario selects the route: a library name ("paper", "dense-urban",
// "interstate-only", "mountain-sparse", "commuter-loop", "mmwave-downtown")
// or "random:<seed>" for a procedurally generated route. The default
// "paper" scenario is byte-identical to the pre-scenario simulator. A
// scenario may pin parts of the test schedule (commuter-loop disables app
// tests) and rescore the shape invariants against its own thresholds.
// The campaign is one continuous drive: each of the three test phones runs
// on its own goroutine, so one campaign keeps at most three cores busy.
// -out DIR receives one <table>.csv.gz per record type (see README
// "Streaming the dataset"). No dataset is held in memory: the records go
// to the writer and to the running reductions behind the printed Table 1,
// record counts, Fig. 2a and shape verdicts. Each file is multi-member
// gzip, each member compressed as its rows arrive, on up to all cores,
// byte-deterministic regardless of the core count.
// -cpuprofile and -memprofile write pprof profiles covering the campaign
// run (see README "Profiling the hot path").
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"

	"wheels/internal/analysis"
	"wheels/internal/campaign"
	"wheels/internal/dataset"
	"wheels/internal/scenario"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("drivesim: ")
	var (
		scn      = flag.String("scenario", "paper", "route scenario: a library name or random:<seed>")
		seed     = flag.Int64("seed", 23, "campaign random seed")
		km       = flag.Float64("km", 0, "truncate the campaign to the first N km (0 = full trip)")
		out      = flag.String("out", "dataset", "output directory for the gzip CSV dataset")
		quick    = flag.Bool("quick", false, "network tests only, first 200 km")
		video    = flag.Float64("video", 180, "video session length in seconds")
		gaming   = flag.Float64("gaming", 60, "gaming session length in seconds")
		rawDir   = flag.String("rawlogs", "", "also write raw XCAL + app log files per bulk test into this directory")
		progress = flag.Bool("progress", false, "print a per-day km ticker on stderr")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the campaign run to this file")
		memProf  = flag.String("memprofile", "", "write a post-run heap profile to this file")
	)
	flag.Parse()

	if !(*km >= 0) {
		log.Fatalf("-km must be at least 0, got %v", *km)
	}
	sc, err := scenario.Resolve(*scn)
	if err != nil {
		log.Fatalf("-scenario %s: %v", *scn, err)
	}
	tb, err := sc.Compile()
	if err != nil {
		log.Fatalf("-scenario %s: %v", *scn, err)
	}

	// -quick picks the base config; the flag overrides apply on top of
	// either base.
	cfg := campaign.DefaultConfig(*seed)
	if *quick {
		cfg = campaign.QuickConfig(*seed, 200)
	}
	if *km > 0 {
		cfg.KmLimit = *km
	}
	cfg.VideoSec = *video
	cfg.GamingSec = *gaming
	cfg.RawLogDir = *rawDir
	// The scenario's pinned schedule phases override the flag-derived mix.
	cfg = sc.ApplySchedule(cfg)
	// campaign.Config.Progress drives the ticker; the fleet CLI prints the
	// same style of per-unit lines, one per completed seed.
	if *progress {
		cfg.Progress = func(day int, km, totalKm float64) {
			fmt.Fprintf(os.Stderr, "  day %d: %.0f/%.0f km\n", day, km, totalKm)
		}
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			log.Fatalf("creating CPU profile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("starting CPU profile: %v", err)
		}
		// Tag each test phase (kind and operator) and the hash folds in the
		// profile.
		campaign.ProfilePhases = true
		dataset.ProfilePhases = true
	}

	w, err := dataset.NewParallelCSVWriter(*out, 0, 0)
	if err != nil {
		log.Fatalf("opening output: %v", err)
	}
	acc := analysis.NewAccumulator(cfg.Seed)
	acc.SetShapeParams(sc.ShapeParams())
	var t1 analysis.Table1Sink
	sink := dataset.Tee(w, acc, &t1)
	c := campaign.NewWithTestbed(cfg, tb)
	fmt.Fprintf(os.Stderr, "simulating %s on scenario %s over %.0f km (seed %d)...\n",
		describe(cfg), sc.Name(), c.EndKm(), cfg.Seed)
	c.RunTo(sink)
	if err := sink.Flush(); err != nil {
		log.Fatalf("writing dataset: %v", err)
	}

	if *cpuProf != "" {
		pprof.StopCPUProfile()
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			log.Fatalf("creating heap profile: %v", err)
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile shows live objects
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatalf("writing heap profile: %v", err)
		}
	}

	fmt.Println(t1.Table1(tb.Route).Render())
	n := acc.Counts()
	fmt.Printf("%d throughput, %d RTT, %d handover, %d test, %d app, %d passive records\n",
		n.Thr, n.RTT, n.Handovers, n.Tests, n.Apps, n.Passive)
	fmt.Println(acc.Fig2a().Render())
	_, shapes := acc.Summarize()
	pass := 0
	for _, r := range shapes {
		if r.Pass {
			pass++
		}
	}
	fmt.Printf("shape invariants: %d/%d pass\n", pass, len(shapes))
	fmt.Printf("dataset written to %s (gzip CSVs)\n", *out)
}

func describe(cfg campaign.Config) string {
	if !cfg.EnableApps {
		return "network tests"
	}
	return "full campaign (network + apps + passive + static)"
}
