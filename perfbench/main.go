// Command perfbench is the repository's performance benchmark. It runs one
// workload through the entry points users run — the fleet's per-seed
// reduction and fleet.Run with report rendering — on the batch engine with
// one campaign in flight, checks every seed's dataset digest and record
// counts against expected.json, and prints its metrics by name and unit,
// the last line as one JSON object.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload trip-full --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload sweep-dump --seed 1 --trace 1
//	bash perfbench/run.sh --steady 10 --workload fleet-network --seed 1 --seconds 30
//	bash perfbench/run.sh --gen-expected perfbench/expected.json
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	o := &options{}
	var (
		workloadName = flag.String("workload", "", "workload to run: trip-full, fleet-network or sweep-dump")
		trace        = flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
		steady       = flag.Int("steady", 0, "run the workload this many times in fresh processes and print each metric's spread")
		genExpected  = flag.String("gen-expected", "", "run every pool seed of every workload and write the expected outputs to this file")
		coldChild    = flag.Bool("cold-child", false, "internal: run one cold start and report it as JSON")
	)
	flag.Int64Var(&o.Seed, "seed", 1, "input seed: rotates the order of the timed blocks and picks the cold-start seed")
	flag.IntVar(&o.Seconds, "seconds", 30, "length of the timed loop in seconds")
	flag.Int64Var(&o.HeldOut, "start", -1, "first campaign seed of a held-out run (>= 0); its seeds are reported, not checked")
	flag.Int64Var(&o.RandomSeed, "random-scenario", defaultRandomScenario, "seed of sweep-dump's random:<seed> scenario")
	flag.StringVar(&o.Out, "out", ".bench_out", "directory for results, manifests, spans and scratch files")
	flag.Parse()
	o.Trace = *trace == 1

	err := func() error {
		if *genExpected != "" {
			return generateExpected(*genExpected, o.RandomSeed)
		}
		w, err := findWorkload(*workloadName)
		if err != nil {
			return err
		}
		o.W = w
		if o.Seconds < 1 || (*trace != 0 && *trace != 1) {
			return fmt.Errorf("want -seconds >= 1 and -trace 0 or 1")
		}
		switch {
		case *coldChild:
			return runColdChild(o)
		case *steady > 0:
			return runSteady(o, *steady)
		}
		return run(o)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run makes one end-to-end or traced run, writes its outputs and prints its
// metrics, the result line last.
func run(o *options) error {
	var (
		res  result
		chk  *checker
		rec  *Recorder
		want []string
		err  error
	)
	if o.Trace {
		res, chk, rec, err = runTraced(o)
		want = perLayerNames()
	} else {
		res, chk, err = runUntraced(o)
		want = endToEndNames
	}
	if err != nil {
		return err
	}
	dir := outDir(o)
	if err := writeOutputs(dir, o, res, chk, rec); err != nil {
		return err
	}
	for _, k := range want {
		m, ok := res.Metrics[k]
		if !ok {
			return fmt.Errorf("metric %s was not measured", k)
		}
		fmt.Printf("%-24s %14.6g %s\n", k, m.Value, m.Unit)
	}
	fmt.Printf("%-24s %14.6g ratio (%d of %d seeds failed, %d unverified)\n",
		"failed_frac", chk.FailedFrac(), chk.Failed, chk.Attempted, chk.Unverified)
	fmt.Printf("outputs in %s\n", dir)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// outDir is the directory a run writes its outputs into.
func outDir(o *options) string {
	trace := 0
	if o.Trace {
		trace = 1
	}
	return filepath.Join(o.Out, fmt.Sprintf("%s-seed%d-trace%d", o.W.Name, o.Seed, trace))
}

// endToEndNames lists the metrics an end-to-end run prints.
var endToEndNames = []string{"seeds_per_hour", "cpu_s_per_seed", "setup_s", "alloc_mb_per_seed", "peak_rss_mb"}

// manifest ties a result to the build and host that produced it.
type manifest struct {
	Workload       string    `json:"workload"`
	InputSeed      int64     `json:"input_seed"`
	Seconds        int       `json:"seconds"`
	Trace          bool      `json:"trace"`
	HeldOutStart   int64     `json:"held_out_start"`
	RandomScenario int64     `json:"random_scenario"`
	Seeds          []string  `json:"seeds"` // every seed the run produced, scenario/policy/seed
	Revision       string    `json:"vcs_revision"`
	Modified       string    `json:"vcs_modified"`
	GoVersion      string    `json:"go_version"`
	GOMAXPROCS     int       `json:"gomaxprocs"`
	NumCPU         int       `json:"nproc"`
	CPUModel       string    `json:"cpu_model"`
	Finished       time.Time `json:"finished"`
}

func newManifest(o *options, chk *checker) manifest {
	m := manifest{Workload: o.W.Name, InputSeed: o.Seed, Seconds: o.Seconds, Trace: o.Trace,
		HeldOutStart: o.HeldOut, RandomScenario: o.RandomSeed, Revision: "unknown", Modified: "unknown",
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: cpuModel(), Finished: time.Now().UTC()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Revision = s.Value
			case "vcs.modified":
				m.Modified = s.Value
			}
		}
	}
	for _, l := range chk.Log {
		m.Seeds = append(m.Seeds, fmt.Sprintf("%s/%s/%d", l.Scenario, l.Policy, l.Seed))
	}
	return m
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// writeOutputs writes the run's result, manifest, per-seed digests and, for
// a traced run, its spans into dir.
func writeOutputs(dir string, o *options, res result, chk *checker, rec *Recorder) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, v := range map[string]any{"result.json": res, "manifest.json": newManifest(o, chk)} {
		b, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if err := chk.writeSeedLog(filepath.Join(dir, "seeds.jsonl")); err != nil {
		return err
	}
	if rec == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := rec.WriteCSV(&buf); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "spans.csv"), buf.Bytes(), 0o644)
}

// generateExpected runs every pool seed of every workload through the
// per-seed calls and writes their outputs as the expected file.
func generateExpected(path string, random int64) error {
	all := map[string][]seedResult{}
	for _, w := range workloads() {
		cells, err := w.compile(random)
		if err != nil {
			return err
		}
		red := newReducer()
		for _, c := range cells {
			for k := 0; k < w.poolSeeds(); k++ {
				res, err := w.runDirect(red, c, w.PoolStart+int64(k), nil)
				if err != nil {
					return err
				}
				all[w.Name] = append(all[w.Name], res)
			}
		}
		fmt.Fprintf(os.Stderr, "%s: %d seeds\n", w.Name, len(all[w.Name]))
	}
	return writeExpected(path, all)
}
