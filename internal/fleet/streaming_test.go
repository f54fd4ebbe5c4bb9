package fleet

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"wheels/internal/analysis"
	"wheels/internal/campaign"
	"wheels/internal/dataset"
)

// TestStreamingSummaryMatchesReduce: the streaming per-seed reduction
// (runSeed — campaign records straight into Accumulator + HashSink) yields
// exactly the summary the materialized path computes, hash included.
func TestStreamingSummaryMatchesReduce(t *testing.T) {
	sn := Scenario{Name: "paper", Testbed: campaign.NewTestbed(), Shapes: analysis.DefaultShapeParams()}
	sc := newSeedScratch()
	// The second seed reuses the first one's scratch, so this also pins the
	// reset contract: a worker's second seed reduces identically to a
	// fresh one.
	for _, seed := range []int64{23, 24} {
		cfg := campaign.QuickConfig(seed, 60)
		want := Reduce(campaign.New(cfg).Run())
		got, err := runSeed(cfg, sn, sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("seed %d: streaming summary differs from Reduce\n got %+v\nwant %+v", seed, got, want)
		}
		if got.DatasetSHA256 == "" {
			t.Errorf("seed %d: streaming summary has no dataset hash", seed)
		}
	}
}

// TestVerifyResumeFlagsDrift: a resumed seed whose checkpointed hash
// matches the recomputed one passes silently; a tampered hash — standing
// in for a checkpoint written by different code — raises HashMismatch,
// while the report still renders from the checkpointed summaries.
func TestVerifyResumeFlagsDrift(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "fleet.jsonl")
	cfg := testConfig(ck)
	cfg.Seeds = 2
	if _, err := Run(cfg); err != nil {
		t.Fatalf("seeding the checkpoint: %v", err)
	}

	cfg.VerifyResume = true
	var mismatches []int64
	cfg.Progress = func(ev Event) {
		if !ev.Resumed {
			t.Errorf("seed %d re-ran instead of resuming", ev.Seed)
		}
		if ev.HashMismatch {
			mismatches = append(mismatches, ev.Seed)
		}
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if len(mismatches) != 0 {
		t.Fatalf("same-code verify flagged seeds %v", mismatches)
	}

	// Tamper seed 23's recorded hash. Lines append in completion order,
	// which the worker pool does not fix, so find seed 23's line by content.
	b, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(b), "\n")
	tamperedOne := false
	for i, line := range lines {
		if strings.Contains(line, `"seed":23,`) {
			lines[i] = strings.Replace(line, `"dataset_sha256":"`, `"dataset_sha256":"beef`, 1)
			tamperedOne = lines[i] != line
		}
	}
	if !tamperedOne {
		t.Fatal("checkpoint has no seed-23 dataset_sha256 field to tamper with")
	}
	tampered := strings.Join(lines, "\n")
	if err := os.WriteFile(ck, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	mismatches = nil
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(mismatches) != 1 || mismatches[0] != 23 {
		t.Errorf("tampered checkpoint: mismatch events = %v, want [23]", mismatches)
	}
	// The checkpointed summary stays authoritative: the tampered hash is
	// what the report shows.
	if !strings.Contains(rep.RenderText(), "sha=beef") {
		t.Error("report did not render from the checkpointed summaries")
	}
}

// TestSeedSinkDigest: a fleet whose SeedSink is the dump writer, which
// digests the bytes it compresses, checkpoints the same DatasetSHA256 for
// every seed as a fleet without a SeedSink; a SeedSink that does not digest
// (a Collector) leaves the digest to the hash sink, with the same result.
func TestSeedSinkDigest(t *testing.T) {
	tmp := t.TempDir()
	digests := func(name string, seedSink func(string, int64) (dataset.Sink, error)) map[SeedKey]string {
		t.Helper()
		cfg := testConfig(filepath.Join(tmp, name+".jsonl"))
		cfg.SeedSink = seedSink
		if _, err := Run(cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rows, _, err := LoadCheckpoint(cfg.Checkpoint)
		if err != nil {
			t.Fatal(err)
		}
		out := map[SeedKey]string{}
		for key, sum := range rows {
			if sum.DatasetSHA256 == "" {
				t.Errorf("%s: seed %d checkpointed no digest", name, key.Seed)
			}
			out[key] = sum.DatasetSHA256
		}
		return out
	}
	want := digests("plain", nil)
	if len(want) != 3 {
		t.Fatalf("plain fleet checkpointed %d seeds, want 3", len(want))
	}

	var _ digester = (*dataset.ParallelCSVWriter)(nil) // so the dump run takes the writer's digest
	dumped := digests("dump", func(scn string, seed int64) (dataset.Sink, error) {
		return dataset.NewParallelCSVWriter(filepath.Join(tmp, "dump", scn, fmt.Sprintf("seed-%d", seed)), 1, 0)
	})
	var mu sync.Mutex
	var cols []*dataset.Collector
	collected := digests("collect", func(string, int64) (dataset.Sink, error) {
		c := dataset.NewCollector(0)
		mu.Lock()
		cols = append(cols, c)
		mu.Unlock()
		return c, nil
	})
	if _, ok := any(cols[0]).(digester); ok {
		t.Fatal("Collector digests; the hash-sink path is not exercised")
	}
	for _, c := range cols {
		if len(c.D.Thr) == 0 {
			t.Error("a Collector SeedSink received no throughput records")
		}
	}
	for name, got := range map[string]map[SeedKey]string{"dump writer": dumped, "Collector": collected} {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s SeedSink checkpointed digests %v, want %v", name, got, want)
		}
	}
}
