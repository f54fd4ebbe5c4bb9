package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"wheels/internal/analysis"
	"wheels/internal/campaign"
	"wheels/internal/dataset"
	"wheels/internal/fleet"
	"wheels/internal/radio"
	"wheels/internal/ran"
	"wheels/internal/scenario"
)

// workload is one input set the benchmark runs. Every workload runs on the
// batch engine with one campaign in flight.
type workload struct {
	Name string
	Base campaign.Config
	// Scenarios are scenario specs as cmd/fleet takes them; "random" stands
	// for random:<the run's random-scenario seed>.
	Scenarios []string
	Policies  bool // cross every scenario with the handover-policy grid
	Fleet     bool // run through fleet.Run; otherwise drive campaigns directly
	Dump      bool // tee every seed into a gzip CSV dump
	// Block is the seeds per cell of one block: one fleet.Run on fleet
	// workloads, one directly driven seed otherwise.
	Block int
	// PassBlocks is the number of blocks in one pass of the timed loop, and
	// TraceBlocks the number a traced run drives. Both count from PoolStart.
	PassBlocks  int
	TraceBlocks int
	// PoolStart is the first campaign seed of the checked pool; expected.json
	// holds one entry per pool seed and cell.
	PoolStart int64
	// RefThreads is the number of reference copies timed at once (ref.go):
	// the number of cores the workload keeps busy.
	RefThreads int
}

// defaultRandomScenario is the random:<seed> scenario sweep-dump runs
// unless -random-scenario overrides it: a 69 km urban loop, so its cells
// are short.
const defaultRandomScenario = 1

func workloads() []*workload {
	full := campaign.DefaultConfig(0)
	full.Engine = campaign.EngineBatch
	full.KmLimit = 400

	quick := campaign.QuickConfig(0, 200)
	quick.Engine = campaign.EngineBatch

	network := campaign.DefaultConfig(0)
	network.Engine = campaign.EngineBatch
	network.EnableApps = false
	network.EnableSpeedTest = false
	network.KmLimit = 35

	return []*workload{
		{Name: "trip-full", Base: full, Scenarios: []string{"paper"},
			Block: 1, PassBlocks: 2, TraceBlocks: 12, PoolStart: 101, RefThreads: 2},
		{Name: "fleet-network", Base: quick, Scenarios: []string{"paper"}, Fleet: true,
			Block: 2, PassBlocks: 2, TraceBlocks: 8, PoolStart: 1001, RefThreads: 1},
		{Name: "sweep-dump", Base: network, Scenarios: []string{"dense-urban", "random"},
			Policies: true, Fleet: true, Dump: true,
			Block: 1, PassBlocks: 2, TraceBlocks: 2, PoolStart: 2001, RefThreads: 1},
	}
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// gridPolicy is one point of the handover-policy grid: an overlay applied
// to every operator's default policy with scenario.PolicyConfig.Apply.
type gridPolicy struct {
	Name string
	All  *scenario.PolicyConfig // nil: the baseline, the scenario's own testbed
}

// policyGrid is the four-policy grid of the sweep-dump workload, the same
// points as cmd/sweep's built-in grid: the measured baseline, a sticky
// policy (wide A3 margin, slow evaluation), a nervous one (the opposite
// corner) and an eager-5g one (elevation probabilities pushed up).
func policyGrid() []gridPolicy {
	f := func(v float64) *float64 { return &v }
	elev := func(mm, mid, low float64) scenario.ElevationConfig {
		return scenario.ElevationConfig{MmWave: f(mm), Mid: f(mid), Low: f(low)}
	}
	return []gridPolicy{
		{Name: "baseline"},
		{Name: "sticky", All: &scenario.PolicyConfig{HysteresisFrac: f(0.20), EvalMinSec: f(14), EvalMaxSec: f(24)}},
		{Name: "nervous", All: &scenario.PolicyConfig{HysteresisFrac: f(0.02), EvalMinSec: f(5), EvalMaxSec: f(9)}},
		{Name: "eager-5g", All: &scenario.PolicyConfig{Elevation: map[string]scenario.ElevationConfig{
			"idle":    elev(0.20, 0.60, 0.75),
			"probe":   elev(0.25, 0.65, 0.80),
			"bulk-dl": elev(0.95, 0.95, 0.90),
			"bulk-ul": elev(0.60, 0.70, 0.85),
		}}},
	}
}

// handover resolves the policy's per-operator handover configs.
func (p gridPolicy) handover() ([radio.NumOperators]ran.HandoverConfig, error) {
	var out [radio.NumOperators]ran.HandoverConfig
	for _, op := range radio.Operators() {
		out[op] = ran.DefaultHandoverConfig(op)
		if err := p.All.Apply(&out[op]); err != nil {
			return out, fmt.Errorf("policy %s: %w", p.Name, err)
		}
		if err := out[op].Validate(); err != nil {
			return out, fmt.Errorf("policy %s: operator %s: %w", p.Name, op, err)
		}
	}
	return out, nil
}

// compile resolves and compiles the workload's scenarios into fleet cells,
// one per scenario, or one per scenario and policy, in sweep order.
func (w *workload) compile(randomSeed int64) ([]fleet.Scenario, error) {
	var cells []fleet.Scenario
	for _, spec := range w.Scenarios {
		if spec == "random" {
			spec = fmt.Sprintf("random:%d", randomSeed)
		}
		sc, err := scenario.Resolve(spec)
		if err != nil {
			return nil, err
		}
		tb, err := sc.Compile()
		if err != nil {
			return nil, err
		}
		cell := fleet.Scenario{Name: sc.Name(), Testbed: tb, Shapes: sc.ShapeParams(), Configure: sc.ApplySchedule}
		if !w.Policies {
			cells = append(cells, cell)
			continue
		}
		for _, p := range policyGrid() {
			c := cell
			c.PolicyName = p.Name
			if p.All != nil {
				ho, err := p.handover()
				if err != nil {
					return nil, err
				}
				clone := *tb
				clone.Handover = ho
				c.Testbed = &clone
			}
			cells = append(cells, c)
		}
	}
	return cells, nil
}

// seedConfig is the campaign config fleet.Run gives the cell's seed.
func (w *workload) seedConfig(cell fleet.Scenario, seed int64) campaign.Config {
	c := w.Base
	c.Seed = seed
	return cell.Configure(c)
}

// seedResult is one seed's output as the benchmark checks it: the dataset
// digest and the record count of every table.
type seedResult struct {
	Scenario string `json:"scenario"`
	Policy   string `json:"policy,omitempty"`
	Seed     int64  `json:"seed"`
	SHA256   string `json:"sha256"`
	Thr      int    `json:"thr"`
	RTT      int    `json:"rtt"`
	Handover int    `json:"handover"`
	Test     int    `json:"test"`
	App      int    `json:"app"`
	Passive  int    `json:"passive"`
}

func newSeedResult(cell fleet.Scenario, seed int64, sha string, n analysis.Counts) seedResult {
	return seedResult{Scenario: cell.Name, Policy: cell.PolicyName, Seed: seed, SHA256: sha,
		Thr: n.Thr, RTT: n.RTT, Handover: n.Handovers, Test: n.Tests, App: n.Apps, Passive: n.Passive}
}

// tables lists the record counts in tableNames order.
func (r seedResult) tables() [numTables]int {
	return [numTables]int{r.Thr, r.RTT, r.Handover, r.Test, r.App, r.Passive}
}

// fromSummary is the checked output of one seed of a fleet report.
func fromSummary(s fleet.SeedSummary) seedResult {
	return seedResult{Scenario: s.Scenario, Policy: s.PolicyName, Seed: s.Seed, SHA256: s.DatasetSHA256,
		Thr: s.ThrSamples, RTT: s.RTTSamples, Handover: s.Handovers, Test: s.Tests, App: s.AppRuns, Passive: s.PassiveSamples}
}

// reducer is the fleet's per-seed reduction, reused across seeds the way a
// fleet worker reuses its own: an accumulator and a hash sink.
type reducer struct {
	acc *analysis.Accumulator
	h   *dataset.HashSink
}

func newReducer() *reducer {
	return &reducer{acc: analysis.NewAccumulator(0), h: dataset.NewHashSink()}
}

// reset prepares the reduction for one seed of the cell, as the fleet does.
func (r *reducer) reset(cell fleet.Scenario, seed int64) {
	r.acc.Reset(seed)
	r.acc.SetShapeParams(cell.Shapes)
	r.h.Reset()
}

func (r *reducer) result(cell fleet.Scenario, seed int64) seedResult {
	return newSeedResult(cell, seed, r.h.Sum(), r.acc.Counts())
}

// runDirect runs one seed through the calls fleet.Run makes per seed:
// NewWithTestbed(...).RunTo(Tee(Accumulator, HashSink[, dump])), then
// Flush. dump, when non-nil, is flushed with the rest.
func (w *workload) runDirect(r *reducer, cell fleet.Scenario, seed int64, dump dataset.Sink) (seedResult, error) {
	r.reset(cell, seed)
	var sink dataset.Sink = dataset.Tee(r.acc, r.h)
	if dump != nil {
		sink = dataset.Tee(r.acc, r.h, dump)
	}
	campaign.NewWithTestbed(w.seedConfig(cell, seed), cell.Testbed).RunTo(sink)
	err := sink.Flush()
	return r.result(cell, seed), err
}

// dumper opens the per-seed gzip CSV writer of cmd/fleet -dump-dir, with
// one compression worker, under dir/<scenario>/seed-N.
type dumper struct{ dir string }

func (d dumper) open(scn string, seed int64) (*dataset.ParallelCSVWriter, error) {
	return dataset.NewParallelCSVWriter(d.seedDir(scn, seed), 1, 0)
}

func (d dumper) seedDir(scn string, seed int64) string {
	return filepath.Join(d.dir, scn, fmt.Sprintf("seed-%d", seed))
}

// dirBytes sums the sizes of the regular files directly under dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}

// fleetConfig is the fleet.Run configuration of one block: every cell over
// Block seeds from start, one campaign in flight, a fresh checkpoint in dir,
// and for dumping workloads cmd/fleet's -dump-dir writer under dir/dump.
func (w *workload) fleetConfig(cells []fleet.Scenario, start int64, dir string) fleet.Config {
	cfg := fleet.Config{
		Base:       w.Base,
		Scenarios:  cells,
		StartSeed:  start,
		Seeds:      w.Block,
		Workers:    1,
		Checkpoint: filepath.Join(dir, "checkpoint.jsonl"),
	}
	if w.Dump {
		d := dumper{dir: filepath.Join(dir, "dump")}
		cfg.SeedSink = func(scn string, seed int64) (dataset.Sink, error) { return d.open(scn, seed) }
	}
	return cfg
}

// renderReport renders the fleet report as cmd/fleet does, into dir.
func renderReport(rep *fleet.Report, dir string) error {
	if err := os.WriteFile(filepath.Join(dir, "report.txt"), []byte(rep.RenderText()), 0o644); err != nil {
		return err
	}
	html, err := rep.HTML()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "report.html"), html, 0o644)
}

// poolSeeds is the number of checked seeds per cell.
func (w *workload) poolSeeds() int { return max(w.PassBlocks, w.TraceBlocks) * w.Block }

// blockStart is the first campaign seed of the block at position p of a
// run over n blocks. The input seed rotates the order, so every run covers
// the same blocks from a different first block; a held-out start (>= 0)
// replaces the pool with blocks from that seed, which expected.json does
// not cover.
func (w *workload) blockStart(inputSeed, heldOut int64, p, n int) int64 {
	first := w.PoolStart
	if heldOut >= 0 {
		first = heldOut
	}
	rot := int(((inputSeed % int64(n)) + int64(n)) % int64(n))
	return first + int64((rot+p)%n*w.Block)
}
