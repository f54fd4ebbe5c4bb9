// Command fleet runs the measurement campaign across scenarios × seeds and
// reports which EXPERIMENTS.md shape invariants replicate, with what
// confidence — the replication-of-the-replication: N full drives instead
// of one, reduced to per-seed summaries as they finish so memory stays
// bounded by the worker pool, not the fleet size.
//
// Usage:
//
//	fleet [-scenario LIST] [-seeds N] [-start-seed S] [-workers W]
//	      [-checkpoint FILE] [-verify-resume] [-out FILE] [-html FILE]
//	      [-dump-dir DIR] [-quick] [-km N] [-apps=false] [-grid builtin|FILE]
//	      [-print-grid] [-cpuprofile FILE] [-memprofile FILE]
//
// -scenario takes a comma-separated list of route scenarios (library names
// like "paper" or "dense-urban", or "random:<seed>" for a procedurally
// generated route) and sweeps the full seed range over each. With two or
// more scenarios the report adds a per-invariant robustness verdict:
// route-robust claims replicate everywhere, route-specific claims hold on
// some routes and fail on others. Checkpoint rows carry the scenario name,
// so one checkpoint file resumes a whole sweep; files written before
// scenarios existed resume as the "paper" scenario.
//
// -grid adds a handover-policy axis: every scenario runs once under each
// policy of the grid, and the report adds a per-road-class Pareto verdict —
// which handover config dominates on city, suburban, and highway driving,
// over handover rate, interruption, 5G dwell, and throughput. The drive
// trace is a pure function of seed and route, so same-seed cells differ
// only in policy. "-grid builtin" runs the built-in baseline / sticky /
// nervous / eager-5g grid; otherwise -grid names a JSON file shaped like:
//
//	{"policies": [
//	  {"name": "baseline"},
//	  {"name": "sticky", "all": {"hysteresis_frac": 0.20}},
//	  {"name": "tuned", "operators": {"Verizon": {"eval_min_sec": 5}}}
//	]}
//
// Each policy entry overlays partial overrides — the same schema scenario
// files use in their "handover" section — onto every operator's default
// policy ("all"), then onto single operators ("operators"). An entry with
// no overrides is the scenario's own policy: its handover section if it
// has one, otherwise the paper-measured defaults. Checkpoint rows are keyed
// by (scenario, policy digest, seed), so one checkpoint file carries the
// whole grid. -print-grid prints the effective grid as JSON and exits.
//
// -cpuprofile and -memprofile write pprof profiles covering the fleet run
// (all seeds, all workers), mirroring drivesim's flags: the CPU profile
// spans fleet.Run only, and the heap profile is written after a final GC so
// it shows live objects.
//
// With -checkpoint, completed seeds append to FILE as JSON lines; an
// interrupted fleet re-run with the same flags resumes, skipping the seeds
// already on disk, and the final report is byte-identical to an
// uninterrupted run's. Rows written by older route-sharded builds summarize
// a different dataset: the resume ignores them and says how many on
// stderr. -verify-resume additionally re-runs each resumed seed and warns
// when its recomputed dataset SHA-256 disagrees with the checkpointed one —
// the signature of a checkpoint written by different code.
//
// -dump-dir DIR additionally streams each freshly-run seed's full dataset
// to DIR/<scenario>/seed-N/ as gzip CSVs (compressed while the seed runs),
// or DIR/<scenario>@<policy>/seed-N/ for a non-default grid policy; resumed
// seeds are not re-run, so they leave no dump.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"wheels/internal/campaign"
	"wheels/internal/dataset"
	"wheels/internal/fleet"
	"wheels/internal/scenario"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fleet: ")
	var (
		scenarios  = flag.String("scenario", "paper", "comma-separated scenario list (library names or random:<seed>) to sweep the seed range over")
		seeds      = flag.Int("seeds", 5, "number of campaigns per scenario (seeds start-seed..start-seed+N-1)")
		startSeed  = flag.Int64("start-seed", 23, "first campaign seed")
		workers    = flag.Int("workers", 0, "max campaigns in flight at once (0 = GOMAXPROCS)")
		checkpoint = flag.String("checkpoint", "", "JSONL file to append per-seed summaries to and resume from")
		verify     = flag.Bool("verify-resume", false, "re-run resumed seeds and warn when the recomputed dataset hash disagrees with the checkpoint (code drift)")
		out        = flag.String("out", "", "write the cross-seed text report to this file (default stdout)")
		htmlOut    = flag.String("html", "", "also write the report as a self-contained HTML page")
		dumpDir    = flag.String("dump-dir", "", "stream each freshly-run seed's dataset to DIR/<scenario>/seed-N/ as gzip CSVs")
		quick      = flag.Bool("quick", false, "network tests only, first 200 km per seed")
		km         = flag.Float64("km", 0, "truncate each campaign to the first N km (0 = full trip)")
		apps       = flag.Bool("apps", true, "run the four killer apps in each campaign")
		gridSpec   = flag.String("grid", "", "cross every scenario with a handover-policy grid: \"builtin\" (baseline/sticky/nervous/eager-5g) or a JSON grid file")
		printGrid  = flag.Bool("print-grid", false, "print the effective -grid as JSON and exit")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the fleet run to this file")
		memProf    = flag.String("memprofile", "", "write a post-run heap profile to this file")
	)
	flag.Parse()

	var grid *scenario.Grid
	if *gridSpec != "" {
		g, err := scenario.LoadGrid(*gridSpec)
		if err != nil {
			log.Fatalf("-grid: %v", err)
		}
		grid = g
	}
	if *printGrid {
		if grid == nil {
			log.Fatal("-print-grid needs -grid")
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(grid); err != nil {
			log.Fatal(err)
		}
		return
	}

	if !(*km >= 0) {
		log.Fatalf("-km must be at least 0, got %v", *km)
	}
	base := campaign.DefaultConfig(0) // Seed is set per fleet job
	base.EnableApps = *apps
	base.KmLimit = *km
	if *quick {
		base = campaign.QuickConfig(0, 200)
		if *km > 0 {
			base.KmLimit = *km
		}
	}

	// Compile every requested scenario once up front: a bad name fails
	// before any campaign runs, and the immutable testbeds are shared by
	// all seeds of their scenario. Without -grid each scenario is one cell
	// under its own policy; with it, each scenario stamps one cell per grid
	// policy.
	policies := []scenario.GridPolicy{{}}
	if grid != nil {
		policies = grid.Policies
	}
	var names []string
	var sweep []fleet.Scenario
	for _, spec := range strings.Split(*scenarios, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		sc, err := scenario.Resolve(spec)
		if err != nil {
			log.Fatalf("-scenario %s: %v", spec, err)
		}
		tb, err := sc.Compile()
		if err != nil {
			log.Fatalf("-scenario %s: %v", spec, err)
		}
		names = append(names, sc.Name())
		for _, p := range policies {
			cell, err := p.Testbed(tb)
			if err != nil {
				log.Fatal(err) // LoadGrid validated; defensive
			}
			sweep = append(sweep, fleet.Scenario{
				Name:       sc.Name(),
				PolicyName: p.Name,
				Testbed:    cell,
				Shapes:     sc.ShapeParams(),
				Configure:  sc.ApplySchedule,
			})
		}
	}
	if len(sweep) == 0 {
		log.Fatal("-scenario lists no scenarios")
	}

	start := time.Now()
	cfg := fleet.Config{
		Base:         base,
		Scenarios:    sweep,
		StartSeed:    *startSeed,
		Seeds:        *seeds,
		Workers:      *workers,
		Checkpoint:   *checkpoint,
		VerifyResume: *verify,
		Progress: func(ev fleet.Event) {
			state := "done"
			if ev.Resumed {
				state = "resumed from checkpoint"
				if *verify && !ev.HashMismatch {
					state = "resumed, hash verified"
				}
			}
			cell := ev.Scenario
			if ev.PolicyName != "" {
				cell += "/" + ev.PolicyName
			}
			fmt.Fprintf(os.Stderr, "  %s seed %d %s (%d/%d, shapes %d/%d, %s)\n",
				cell, ev.Seed, state, ev.Done, ev.Total, ev.ShapesPass, ev.ShapesTotal,
				time.Since(start).Round(time.Second))
			if ev.HashMismatch {
				fmt.Fprintf(os.Stderr, "  WARNING: %s seed %d checkpoint hash disagrees with this build's recomputed dataset hash — the checkpoint was written by different code\n", cell, ev.Seed)
			}
		},
	}
	if *dumpDir != "" {
		dir := *dumpDir
		cfg.SeedSink = func(scn string, seed int64) (dataset.Sink, error) {
			return dataset.NewParallelCSVWriter(filepath.Join(dir, scn, fmt.Sprintf("seed-%d", seed)), 0, 0)
		}
	}

	axis := ""
	if grid != nil {
		axis = fmt.Sprintf(" × %d policies", len(policies))
	}
	fmt.Fprintf(os.Stderr, "fleet: scenarios %s%s, %d seeds from %d...\n",
		strings.Join(names, ","), axis, *seeds, *startSeed)

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			log.Fatalf("creating CPU profile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("starting CPU profile: %v", err)
		}
		// Phase labels (test kind and operator per phase, plus hash) cost a
		// little per phase, so they ride the profiling flag rather than
		// being always on. See the README profiling walkthrough for reading
		// them.
		campaign.ProfilePhases = true
		dataset.ProfilePhases = true
	}

	rep, err := fleet.Run(cfg)

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

	if err != nil {
		// fleet.Run's errors already begin with "fleet: ", the log prefix.
		log.Fatal(strings.TrimPrefix(err.Error(), "fleet: "))
	}
	if rep.ShardedRows > 0 {
		fmt.Fprintf(os.Stderr, "fleet: ignored %d checkpoint row(s) written by route-sharded builds\n", rep.ShardedRows)
	}

	text := rep.RenderText()
	if *out != "" {
		if err := os.WriteFile(*out, []byte(text), 0o644); err != nil {
			log.Fatalf("writing report: %v", err)
		}
		fmt.Fprintf(os.Stderr, "report written to %s\n", *out)
	} else {
		fmt.Print(text)
	}
	if *htmlOut != "" {
		html, err := rep.HTML()
		if err != nil {
			log.Fatalf("rendering HTML: %v", err)
		}
		if err := os.WriteFile(*htmlOut, html, 0o644); err != nil {
			log.Fatalf("writing HTML: %v", err)
		}
		fmt.Fprintf(os.Stderr, "HTML report written to %s\n", *htmlOut)
	}
}
