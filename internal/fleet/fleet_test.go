package fleet

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"wheels/internal/campaign"
	"wheels/internal/dataset"
	"wheels/internal/scenario"
)

// testConfig is a small three-seed fleet over the route's first 40 km.
func testConfig(checkpoint string) Config {
	return Config{
		Base:       campaign.QuickConfig(0, 40),
		StartSeed:  23,
		Seeds:      3,
		Workers:    3,
		Checkpoint: checkpoint,
	}
}

func renderedReport(t *testing.T, cfg Config) string {
	t.Helper()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("fleet.Run: %v", err)
	}
	return rep.RenderText()
}

func TestFleetDeterministicAcrossWorkerCounts(t *testing.T) {
	cfg := testConfig("")
	base := renderedReport(t, cfg)
	cfg.Workers = 1
	if serial := renderedReport(t, cfg); serial != base {
		t.Error("worker count changed the rendered fleet report")
	}
	if len(base) == 0 || !strings.Contains(base, "seed 23") {
		t.Fatalf("report looks wrong:\n%s", base)
	}
}

// TestFleetCheckpointResume is the crash-resume contract: kill a fleet
// after some seeds completed (simulated by truncating the checkpoint,
// including a torn final line), re-run with the same flags, and the final
// report must be byte-identical while the completed seeds are skipped.
func TestFleetCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "fleet.jsonl")

	cfg := testConfig(ck)
	full := renderedReport(t, cfg)

	// The checkpoint now holds all three seeds. Keep the first two lines
	// and append a torn partial record — the file a mid-write kill leaves.
	b, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(b), "\n")
	if len(lines) < 3 {
		t.Fatalf("checkpoint has %d lines, want >= 3", len(lines))
	}
	truncated := lines[0] + lines[1] + `{"seed":25,"ops":{"V":{"drive_dl`
	if err := os.WriteFile(ck, []byte(truncated), 0o644); err != nil {
		t.Fatal(err)
	}

	// First resume: the torn seed re-runs and appends after the fragment.
	if first := renderedReport(t, cfg); first != full {
		t.Error("first resume after the torn write differs from the uninterrupted run")
	}
	// Second resume: all three seeds now load from the repaired checkpoint.

	var events []Event
	cfg.Progress = func(ev Event) { events = append(events, ev) }
	resumed := renderedReport(t, cfg)
	if resumed != full {
		t.Errorf("resumed report differs from the uninterrupted run:\n--- full ---\n%s\n--- resumed ---\n%s", full, resumed)
	}
	reused, reran := 0, 0
	for _, ev := range events {
		if ev.Resumed {
			reused++
		} else {
			reran++
		}
	}
	if reused != 3 || reran != 0 {
		t.Errorf("second resume reused %d and re-ran %d seeds, want 3 and 0 (the first resume repaired the torn line)", reused, reran)
	}

	// A checkpoint does not change the report vs a checkpoint-free run.
	if noCk := renderedReport(t, testConfig("")); noCk != full {
		t.Error("checkpointed and checkpoint-free fleets rendered different reports")
	}
}

// checkpointRows runs cfg once against a fresh checkpoint and returns its
// one row re-tagged as older builds wrote it: with "shards":2, as a
// route-sharded run did, and with "shards":1, as an unsharded run did.
func checkpointRows(t *testing.T, cfg Config) (sharded, unsharded string) {
	t.Helper()
	cfg.Checkpoint = filepath.Join(t.TempDir(), "fresh.jsonl")
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(cfg.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	line := string(b)
	if strings.Count(line, "\n") != 1 || !strings.HasPrefix(line, "{") || strings.Contains(line, `"shards"`) {
		t.Fatalf("want one fresh row without a shards field, got %q", line)
	}
	return `{"shards":2,` + line[1:], `{"shards":1,` + line[1:]
}

// TestFleetShardedRowDoesNotShadowFreshRow: a route-sharded row ahead of
// an adoptable row for the same (scenario, policy, seed) is ignored and
// counted, so the seed resumes from the row behind it instead of re-running
// on every pass.
func TestFleetShardedRowDoesNotShadowFreshRow(t *testing.T) {
	cfg := testConfig("")
	cfg.Seeds = 1
	want := renderedReport(t, cfg)
	sharded, unsharded := checkpointRows(t, cfg)

	cfg.Checkpoint = filepath.Join(t.TempDir(), "fleet.jsonl")
	if err := os.WriteFile(cfg.Checkpoint, []byte(sharded+unsharded), 0o644); err != nil {
		t.Fatal(err)
	}
	for pass := 1; pass <= 2; pass++ {
		var reran []int64
		cfg.Progress = func(ev Event) {
			if !ev.Resumed {
				reran = append(reran, ev.Seed)
			}
		}
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(reran) != 0 {
			t.Errorf("pass %d re-ran seeds %v instead of resuming", pass, reran)
		}
		if rep.ShardedRows != 1 {
			t.Errorf("pass %d: ShardedRows = %d, want 1", pass, rep.ShardedRows)
		}
		if got := rep.RenderText(); got != want {
			t.Errorf("pass %d: resumed report differs from a checkpoint-free run", pass)
		}
	}
}

// TestFleetStride: with Stride 4, a 2-scenario × 3-seed sweep runs only
// its sweep positions 0 (paper, seed 23) and 4 (alt, seed 24). It adopts
// the checkpoint row of position 0, re-runs position 4, whose row is
// missing, and leaves the rows of the other positions in the file byte for
// byte, with only position 4's row appended after them.
func TestFleetStride(t *testing.T) {
	dir := t.TempDir()
	tb := campaign.NewTestbed()
	cfg := Config{
		Base:      campaign.QuickConfig(0, 25),
		Scenarios: []Scenario{{Name: "paper", Testbed: tb}, {Name: "alt", Testbed: tb}},
		StartSeed: 23,
		Seeds:     3,
		Workers:   1,
	}

	// A -workers 1 run writes its rows in sweep order: line i is position i.
	full := cfg
	full.Checkpoint = filepath.Join(dir, "full.jsonl")
	if _, err := Run(full); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(full.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.SplitAfter(string(b), "\n")
	if len(rows) != 7 || rows[6] != "" {
		t.Fatalf("full run wrote %d checkpoint lines, want 6", len(rows)-1)
	}
	prior := strings.Join(rows[:4], "") + rows[5]

	cfg.Stride = 4
	cfg.Checkpoint = filepath.Join(dir, "stride.jsonl")
	if err := os.WriteFile(cfg.Checkpoint, []byte(prior), 0o644); err != nil {
		t.Fatal(err)
	}
	var got []string
	cfg.Progress = func(ev Event) {
		got = append(got, fmt.Sprintf("%s/%d resumed=%v", ev.Scenario, ev.Seed, ev.Resumed))
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"paper/23 resumed=true", "alt/24 resumed=false"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Stride 4 events %v, want %v", got, want)
	}
	var ran []string
	for _, sum := range rep.Summaries {
		ran = append(ran, fmt.Sprintf("%s/%d", sum.Scenario, sum.Seed))
	}
	if fmt.Sprint(ran) != "[paper/23 alt/24]" {
		t.Errorf("Stride 4 report holds %v, want [paper/23 alt/24]", ran)
	}
	after, err := os.ReadFile(cfg.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != prior+rows[4] {
		t.Errorf("Stride 4 checkpoint:\n%s\nwant the prior rows unchanged, then position 4:\n%s", after, prior+rows[4])
	}
}

// sweepScenarios compiles three library scenarios the way cmd/fleet does —
// the fleet package itself never imports internal/scenario, so this is also
// the integration check that the compile API carries everything a sweep
// needs (testbed, thresholds, schedule hook).
func sweepScenarios(t *testing.T, names ...string) []Scenario {
	t.Helper()
	var out []Scenario
	for _, name := range names {
		sc, err := scenario.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := sc.Compile()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, Scenario{
			Name:      sc.Name(),
			Testbed:   tb,
			Shapes:    sc.ShapeParams(),
			Configure: sc.ApplySchedule,
		})
	}
	return out
}

// sweepConfig is a 3-scenario × 2-seed sweep over short campaigns.
func sweepConfig(t *testing.T, checkpoint string) Config {
	cfg := testConfig(checkpoint)
	cfg.Seeds = 2
	cfg.Scenarios = sweepScenarios(t, "paper", "dense-urban", "commuter-loop")
	return cfg
}

func TestFleetScenarioSweep(t *testing.T) {
	cfg := sweepConfig(t, "")
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("fleet.Run: %v", err)
	}
	if len(rep.Summaries) != 6 {
		t.Fatalf("sweep produced %d summaries, want 6", len(rep.Summaries))
	}
	// Summaries group by sweep order, seeds ascending within a scenario.
	wantOrder := []SeedKey{
		{Scenario: "paper", Seed: 23}, {Scenario: "paper", Seed: 24},
		{Scenario: "dense-urban", Seed: 23}, {Scenario: "dense-urban", Seed: 24},
		{Scenario: "commuter-loop", Seed: 23}, {Scenario: "commuter-loop", Seed: 24},
	}
	for i, want := range wantOrder {
		s := rep.Summaries[i]
		if s.Scenario != want.Scenario || s.Seed != want.Seed {
			t.Errorf("summary[%d] = (%s, %d), want %v", i, s.Scenario, s.Seed, want)
		}
	}
	// Different routes must actually produce different data.
	if rep.Summaries[0].DatasetSHA256 == rep.Summaries[2].DatasetSHA256 {
		t.Error("paper and dense-urban seed 23 produced identical datasets")
	}
	text := rep.RenderText()
	for _, want := range []string{
		"3 scenarios", "Invariant robustness across routes",
		"=== scenario paper", "=== scenario dense-urban", "=== scenario commuter-loop",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("sweep report missing %q:\n%s", want, text)
		}
	}
	if rob := rep.Robustness(); len(rob) == 0 {
		t.Error("multi-scenario report produced no robustness verdicts")
	} else {
		for _, ir := range rob {
			switch ir.Verdict {
			case VerdictRobust, VerdictRouteSpecific, VerdictFragile:
			default:
				t.Errorf("invariant %s has verdict %q", ir.Name, ir.Verdict)
			}
			if len(ir.Rates) != 3 {
				t.Errorf("invariant %s has rates for %d scenarios, want 3", ir.Name, len(ir.Rates))
			}
		}
	}
	if _, err := rep.HTML(); err != nil {
		t.Errorf("sweep report HTML: %v", err)
	}

	// The sweep is a pure function of the config: worker count is invisible.
	cfg2 := sweepConfig(t, "")
	cfg2.Workers = 1
	rep2, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.RenderText() != text {
		t.Error("worker count changed the rendered sweep report")
	}
}

// TestFleetScenarioSweepResume is the multi-scenario crash-resume contract:
// kill a sweep mid-flight (simulated by truncating the checkpoint to a
// prefix plus a torn line), re-run, and the report must be byte-identical
// while the surviving (scenario, seed) rows are skipped.
func TestFleetScenarioSweepResume(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "sweep.jsonl")
	cfg := sweepConfig(t, ck)
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := rep.RenderText()

	b, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(b), "\n")
	if len(lines) < 6 {
		t.Fatalf("sweep checkpoint has %d lines, want >= 6", len(lines))
	}
	truncated := lines[0] + lines[1] + lines[2] + `{"scenario":"dense-urban","seed":24,"ops":{"V":{"dri`
	if err := os.WriteFile(ck, []byte(truncated), 0o644); err != nil {
		t.Fatal(err)
	}

	var events []Event
	cfg.Progress = func(ev Event) { events = append(events, ev) }
	rep2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.RenderText() != full {
		t.Error("resumed sweep report differs from the uninterrupted run")
	}
	resumed := 0
	for _, ev := range events {
		if ev.Resumed {
			resumed++
		}
		if ev.Total != 6 {
			t.Errorf("event Total = %d, want 6", ev.Total)
		}
	}
	if resumed != 3 {
		t.Errorf("resume reused %d rows, want the 3 intact checkpoint lines", resumed)
	}
}

// TestFleetScenarioMismatchNotReused: a checkpoint row from one scenario
// must never satisfy another scenario's seed — same seed, different route,
// different data.
func TestFleetScenarioMismatchNotReused(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "fleet.jsonl")
	cfg := testConfig(ck)
	cfg.Seeds = 1
	if _, err := Run(cfg); err != nil { // writes the paper seed-23 row
		t.Fatal(err)
	}

	cfg.Scenarios = sweepScenarios(t, "dense-urban")
	var events []Event
	cfg.Progress = func(ev Event) { events = append(events, ev) }
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if ev.Resumed {
			t.Errorf("dense-urban seed %d resumed from a paper checkpoint row", ev.Seed)
		}
	}
}

// TestFleetDuplicateScenarioRejected: two scenarios with one name would
// write indistinguishable checkpoint rows, so Run refuses up front.
func TestFleetDuplicateScenarioRejected(t *testing.T) {
	cfg := testConfig("")
	cfg.Scenarios = []Scenario{{Name: "dense-urban"}, {Name: "dense-urban"}}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "listed twice") {
		t.Fatalf("duplicate scenario names not rejected: %v", err)
	}
}

// TestFleetSeedSinkPerPolicy: two handover policies of one scenario and
// seed, run concurrently, must each get their own SeedSink path — the bare
// scenario name for the default policy, name@policy for the other — so
// their dumps never write the same files.
func TestFleetSeedSinkPerPolicy(t *testing.T) {
	grid, err := scenario.LoadGrid("builtin")
	if err != nil {
		t.Fatal(err)
	}
	tb := campaign.NewTestbed()
	cfg := testConfig("")
	cfg.Base = campaign.QuickConfig(0, 20)
	cfg.Seeds = 1
	cfg.Workers = 2
	for _, p := range grid.Policies[:2] {
		cell, err := p.Testbed(tb)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Scenarios = append(cfg.Scenarios, Scenario{Name: "paper", PolicyName: p.Name, Testbed: cell})
	}
	dir := t.TempDir()
	var mu sync.Mutex
	opened := map[string]int{}
	cfg.SeedSink = func(scn string, seed int64) (dataset.Sink, error) {
		path := filepath.Join(dir, scn, fmt.Sprintf("seed-%d", seed))
		mu.Lock()
		opened[path]++
		mu.Unlock()
		return dataset.NewParallelCSVWriter(path, 0, 0)
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"paper", "paper@" + grid.Policies[1].Name} {
		path := filepath.Join(dir, want, "seed-23")
		if opened[path] != 1 {
			t.Errorf("sink %s opened %d times, want once (all opens: %v)", path, opened[path], opened)
		}
	}
	if len(opened) != 2 {
		t.Errorf("opened %d distinct sink paths, want 2: %v", len(opened), opened)
	}
}

// TestFleetSeedSinkDiskFull: a seed whose dataset dump cannot be written
// (its throughput table is /dev/full, where writes fail with ENOSPC) fails
// the run and is not checkpointed, so a resume re-runs and re-dumps it.
func TestFleetSeedSinkDiskFull(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full not available")
	}
	tmp := t.TempDir()
	cfg := testConfig(filepath.Join(tmp, "ckpt.jsonl"))
	cfg.Base = campaign.QuickConfig(0, 20)
	cfg.Seeds = 1
	cfg.Workers = 1
	cfg.SeedSink = func(scn string, seed int64) (dataset.Sink, error) {
		dir := filepath.Join(tmp, scn, fmt.Sprintf("seed-%d", seed))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if err := os.Symlink("/dev/full", filepath.Join(dir, "throughput_samples.csv.gz")); err != nil {
			return nil, err
		}
		return dataset.NewParallelCSVWriter(dir, 0, 0)
	}
	if _, err := Run(cfg); err == nil {
		t.Fatal("fleet.Run succeeded although the seed's dump hit a full device")
	}
	rows, _, err := LoadCheckpoint(cfg.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	for key := range rows {
		if key.Seed == cfg.StartSeed {
			t.Fatalf("checkpoint holds a row for seed %d whose dump failed", key.Seed)
		}
	}
}

// TestReduceEmptyDataset guards the reducer against a seed whose campaign
// yields zero tests of some kind: medians must come back zero (never NaN,
// which would poison the JSON checkpoint) and nothing may panic.
func TestReduceEmptyDataset(t *testing.T) {
	for _, ds := range []*dataset.Dataset{
		{Seed: 99},
		{Seed: 99, Tests: []dataset.TestSummary{{ID: 1, Miles: 1}}},
	} {
		sum := Reduce(ds)
		if sum.Seed != 99 {
			t.Fatalf("Reduce keyed summary wrong: %+v", sum)
		}
		for op, o := range sum.Ops {
			for name, v := range map[string]float64{
				"drive DL": o.DriveDLMedMbps, "static DL": o.StaticDLMedMbps,
				"RTT": o.DriveRTTMedMs, "5G share": o.FiveGMileShare,
				"HOs/mile": o.HOsPerMileMed, "HO dur": o.HODurMedMs,
			} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s %s is %v on an empty dataset", op, name, v)
				}
			}
		}
		if _, err := json.Marshal(sum); err != nil {
			t.Errorf("empty-dataset summary does not survive JSON: %v", err)
		}
		for _, pass := range sum.Shapes {
			if pass {
				t.Error("a shape invariant passed on an empty dataset")
			}
		}
	}
}

// TestFleetReportEmpty: a fleet whose seeds all failed to load still
// renders (and HTML-renders) without NaNs or panics.
func TestFleetReportEmpty(t *testing.T) {
	rep := &Report{StartSeed: 5, Seeds: 2}
	text := rep.RenderText()
	if !strings.Contains(text, "no completed seeds") {
		t.Errorf("empty report rendered:\n%s", text)
	}
	if _, err := rep.HTML(); err != nil {
		t.Errorf("empty report HTML: %v", err)
	}
}
