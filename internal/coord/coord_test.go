package coord

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"wheels/internal/fleet"
)

// workerBin returns the path of a stand-in worker program (true or false),
// skipping the test where the host has none.
func workerBin(t *testing.T, name string) string {
	t.Helper()
	path, err := exec.LookPath(name)
	if err != nil {
		t.Skipf("no %s on PATH: %v", name, err)
	}
	return path
}

// writeCheckpoint writes the summaries as checkpoint lines and returns the
// file's bytes.
func writeCheckpoint(t *testing.T, path string, sums ...fleet.SeedSummary) []byte {
	t.Helper()
	if err := fleet.AppendSummaries(path, sums); err != nil {
		t.Fatal(err)
	}
	return readFile(t, path)
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func row(seed int64) fleet.SeedSummary {
	return fleet.SeedSummary{Scenario: "paper", Seed: seed, DatasetSHA256: strings.Repeat("ab", 32)}
}

// assertUnlocked checks that Run left no lock behind: the checkpoint's
// lock can be taken again.
func assertUnlocked(t *testing.T, ckpt string) {
	t.Helper()
	lock, err := fleet.AcquireCheckpointLock(ckpt)
	if err != nil {
		t.Fatalf("checkpoint still locked after Run: %v", err)
	}
	lock.Release()
}

func TestRunRejectsBadConfig(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "ck.jsonl")
	spawn := func(int, int) (*exec.Cmd, error) {
		t.Fatal("Spawn called for an invalid config")
		return nil, nil
	}
	if err := Run(Config{Procs: 1, Spawn: spawn}); err == nil || !strings.Contains(err.Error(), "Checkpoint") {
		t.Errorf("empty Checkpoint: err = %v, want one naming Checkpoint", err)
	}
	for _, procs := range []int{0, -1} {
		if err := Run(Config{Checkpoint: ckpt, Procs: procs, Spawn: spawn}); err == nil || !strings.Contains(err.Error(), "Procs") {
			t.Errorf("Procs %d: err = %v, want one naming Procs", procs, err)
		}
	}
	if _, err := os.Stat(ckpt + ".lock"); !os.IsNotExist(err) {
		t.Errorf("an invalid config took the lock: %v", err)
	}
}

func TestSpawnErrorStartsNoWorker(t *testing.T) {
	ok := workerBin(t, "true")
	ckpt := filepath.Join(t.TempDir(), "ck.jsonl")
	var built []*exec.Cmd
	boom := errors.New("no worker for this shard")
	err := Run(Config{
		Checkpoint: ckpt,
		Procs:      3,
		Spawn: func(shard, procs int) (*exec.Cmd, error) {
			if shard == 1 {
				return nil, boom
			}
			cmd := exec.Command(ok)
			built = append(built, cmd)
			return cmd, nil
		},
		Merge: func([]string) error {
			t.Error("Merge called after a Spawn error")
			return nil
		},
	})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "worker 1") {
		t.Fatalf("err = %v, want the Spawn error for worker 1", err)
	}
	for i, cmd := range built {
		if cmd.Process != nil {
			t.Errorf("worker %d started although shard 1 could not be built", i)
		}
	}
	assertUnlocked(t, ckpt)
}

func TestStartErrorOnMissingBinary(t *testing.T) {
	ok := workerBin(t, "true")
	ckpt := filepath.Join(t.TempDir(), "ck.jsonl")
	missing := filepath.Join(t.TempDir(), "no-such-worker")
	err := Run(Config{
		Checkpoint: ckpt,
		Procs:      2,
		Spawn: func(shard, procs int) (*exec.Cmd, error) {
			if shard == 1 {
				return exec.Command(missing), nil
			}
			return exec.Command(ok), nil
		},
		Merge: func([]string) error {
			t.Error("Merge called after a Start error")
			return nil
		},
	})
	if err == nil || !strings.Contains(err.Error(), "starting worker 1") {
		t.Fatalf("err = %v, want a start error for worker 1", err)
	}
	assertUnlocked(t, ckpt)
}

func TestFailedWorkerSkipsMerge(t *testing.T) {
	ok, fail := workerBin(t, "true"), workerBin(t, "false")
	ckpt := filepath.Join(t.TempDir(), "ck.jsonl")
	before := writeCheckpoint(t, ckpt, row(1), row(2))
	err := Run(Config{
		Checkpoint: ckpt,
		Procs:      3,
		Spawn: func(shard, procs int) (*exec.Cmd, error) {
			if shard == 2 {
				return exec.Command(fail), nil
			}
			return exec.Command(ok), nil
		},
		Merge: func([]string) error {
			t.Error("Merge called although a worker failed")
			return nil
		},
	})
	if err == nil {
		t.Fatal("Run succeeded with a failing worker")
	}
	if !strings.Contains(err.Error(), ShardPath(ckpt, 2)) {
		t.Errorf("err = %v, want it to name shard %s", err, ShardPath(ckpt, 2))
	}
	for _, shard := range []int{0, 1} {
		if strings.Contains(err.Error(), ShardPath(ckpt, shard)) {
			t.Errorf("err = %v names shard %d, which succeeded", err, shard)
		}
	}
	if after := readFile(t, ckpt); !bytes.Equal(before, after) {
		t.Errorf("main checkpoint changed by a failed run:\n%s\nwas\n%s", after, before)
	}
	assertUnlocked(t, ckpt)
}

func TestMergeErrorReturned(t *testing.T) {
	ok := workerBin(t, "true")
	ckpt := filepath.Join(t.TempDir(), "ck.jsonl")
	boom := errors.New("merge failed")
	var merged []string
	err := Run(Config{
		Checkpoint: ckpt,
		Procs:      2,
		Spawn:      func(int, int) (*exec.Cmd, error) { return exec.Command(ok), nil },
		Merge: func(paths []string) error {
			merged = paths
			return boom
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the Merge error", err)
	}
	if want := []string{ShardPath(ckpt, 0), ShardPath(ckpt, 1)}; strings.Join(merged, ",") != strings.Join(want, ",") {
		t.Errorf("Merge got shards %v, want %v", merged, want)
	}
	assertUnlocked(t, ckpt)
}

// TestSeedShardsAppendOnly pins the seeding step kill/resume relies on: a
// shard gains exactly the main rows it lacks, appended behind what it
// already holds, and seeding it again appends nothing.
func TestSeedShardsAppendOnly(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ck.jsonl")
	writeCheckpoint(t, ckpt, row(3), row(1))
	shards := []string{ShardPath(ckpt, 0), ShardPath(ckpt, 1)}
	// Shard 0 survived a killed run: it holds an unmerged row (seed 7) and
	// one of the main rows.
	held := writeCheckpoint(t, shards[0], row(7), row(1))

	if err := seedShards(ckpt, shards); err != nil {
		t.Fatal(err)
	}
	line := func(seed int64) []byte {
		b, err := fleet.EncodeSummary(row(seed))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want0 := append(append([]byte(nil), held...), line(3)...)
	want1 := append(line(1), line(3)...)
	for i, want := range [][]byte{want0, want1} {
		if got := readFile(t, shards[i]); !bytes.Equal(got, want) {
			t.Errorf("shard %d after seeding:\n%s\nwant\n%s", i, got, want)
		}
	}

	if err := seedShards(ckpt, shards); err != nil {
		t.Fatal(err)
	}
	for i, want := range [][]byte{want0, want1} {
		if got := readFile(t, shards[i]); !bytes.Equal(got, want) {
			t.Errorf("shard %d after a second seeding:\n%s\nwant\n%s", i, got, want)
		}
	}
}
