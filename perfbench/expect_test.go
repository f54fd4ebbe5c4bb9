package main

import (
	"encoding/json"
	"io"
	"strings"
	"testing"
)

// TestExpectedCoversEveryPoolSeed checks that expected.json holds exactly
// one entry per pool seed and cell of every workload.
func TestExpectedCoversEveryPoolSeed(t *testing.T) {
	for _, w := range workloads() {
		cells, err := w.compile(defaultRandomScenario)
		if err != nil {
			t.Fatal(err)
		}
		chk, err := newChecker(w.Name, expectedJSON, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if want := len(cells) * w.poolSeeds(); len(chk.want) != want {
			t.Errorf("%s: %d expected entries, want %d", w.Name, len(chk.want), want)
		}
		for _, c := range cells {
			for k := 0; k < w.poolSeeds(); k++ {
				if _, ok := chk.want[cellSeed{c.Name, c.PolicyName, w.PoolStart + int64(k)}]; !ok {
					t.Errorf("%s: no entry for %s/%s seed %d", w.Name, c.Name, c.PolicyName, w.PoolStart+int64(k))
				}
			}
		}
	}
}

// alterFirst returns the expected file with the first entry of the
// workload changed by edit.
func alterFirst(t *testing.T, workload string, edit func(*seedResult)) []byte {
	t.Helper()
	var f expectedFile
	if err := json.Unmarshal(expectedJSON, &f); err != nil {
		t.Fatal(err)
	}
	edit(&f.Workloads[workload][0])
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestAlteredExpectationFails runs the first pool seed of fleet-network
// through the cold start (fleet.Run) three times: against the shipped
// expectations, against one altered digest and against one altered table
// count. Only the first passes.
func TestAlteredExpectationFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three campaigns")
	}
	w, err := findWorkload("fleet-network")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		expected []byte
		failed   int
		report   string
	}{
		{"shipped", expectedJSON, 0, ""},
		{"digest", alterFirst(t, w.Name, func(r *seedResult) { r.SHA256 = strings.Repeat("0", 64) }), 1, "dataset sha256"},
		{"table", alterFirst(t, w.Name, func(r *seedResult) { r.Handover++ }), 1, "table handover"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var report strings.Builder
			chk, err := newChecker(w.Name, tc.expected, &report)
			if err != nil {
				t.Fatal(err)
			}
			o := &options{W: w, Seed: 0, HeldOut: -1, RandomSeed: defaultRandomScenario} // starts at seed 1001
			if _, _, err := coldStart(o, chk, t.TempDir()); err != nil {
				t.Fatal(err)
			}
			if chk.Attempted != 1 || chk.Failed != tc.failed || chk.Unverified != 0 {
				t.Fatalf("attempted %d failed %d unverified %d, want 1, %d, 0", chk.Attempted, chk.Failed, chk.Unverified, tc.failed)
			}
			if got := chk.FailedFrac(); (got > 0) != (tc.failed > 0) {
				t.Errorf("failed_frac %v", got)
			}
			if !strings.Contains(report.String(), tc.report) || (tc.report != "" && !strings.Contains(report.String(), "seed 1001")) {
				t.Errorf("report %q does not name the seed and %q", report.String(), tc.report)
			}
		})
	}
}

// TestHeldOutSeedsAreUnverified checks that seeds outside the pool are
// reported, not checked.
func TestHeldOutSeedsAreUnverified(t *testing.T) {
	chk, err := newChecker("fleet-network", expectedJSON, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	chk.check(seedResult{Scenario: "paper", Seed: 999999, SHA256: "x"}, nil)
	if chk.Unverified != 1 || chk.Failed != 0 || chk.Attempted != 1 {
		t.Errorf("unverified %d failed %d attempted %d", chk.Unverified, chk.Failed, chk.Attempted)
	}
}

func TestBlockStartRotatesThroughTheSameBlocks(t *testing.T) {
	w, err := findWorkload("fleet-network")
	if err != nil {
		t.Fatal(err)
	}
	n := w.PassBlocks
	for _, seed := range []int64{0, 3, -1, 1 << 40} {
		seen := map[int64]bool{}
		for p := 0; p < n; p++ {
			start := w.blockStart(seed, -1, p, n)
			if start < w.PoolStart || start >= w.PoolStart+int64(w.poolSeeds()) || (start-w.PoolStart)%int64(w.Block) != 0 {
				t.Fatalf("seed %d position %d starts at %d, outside the pool's blocks", seed, p, start)
			}
			seen[start] = true
		}
		if len(seen) != n {
			t.Errorf("seed %d covers %d distinct blocks, want %d", seed, len(seen), n)
		}
	}
	if a, b := w.blockStart(1, -1, 0, n), w.blockStart(2, -1, 0, n); a == b {
		t.Errorf("input seeds 1 and 2 both start at block %d", a)
	}
	if got := w.blockStart(3, 5000, 0, n); got < 5000 || got >= 5000+int64(n*w.Block) {
		t.Errorf("held-out run starts at %d, not in its own blocks from 5000", got)
	}
}
