// Coordinator tests live in the external fleet_test package: internal/coord
// imports internal/fleet, so the in-package tests cannot import it back.
// The process-level tests re-exec this test binary as the worker — TestMain
// intercepts the WHEELS_COORD_SHARD environment variable before any test
// runs, exactly the way cmd/fleet re-invokes itself with -coord-shard.
package fleet_test

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"wheels/internal/campaign"
	"wheels/internal/coord"
	"wheels/internal/fleet"
)

func TestMain(m *testing.M) {
	if spec := os.Getenv("WHEELS_COORD_SHARD"); spec != "" {
		coordWorkerMain(spec)
		return
	}
	os.Exit(m.Run())
}

// coordTestConfig is the sweep every coordinator test partitions: small
// enough to run many times, wide enough (2 scenarios × 3 seeds) that a
// 2- or 3-way partition splits unevenly and crosses scenario boundaries.
func coordTestConfig(ckpt string) fleet.Config {
	tb := campaign.NewTestbed()
	return fleet.Config{
		Base: campaign.QuickConfig(0, 25),
		Scenarios: []fleet.Scenario{
			{Name: "paper", Testbed: tb},
			{Name: "alt", Testbed: tb},
		},
		StartSeed:  23,
		Seeds:      3,
		Workers:    1,
		Checkpoint: ckpt,
	}
}

// coordWorkerMain is the re-exec'd worker: run the test sweep's shard i of
// n against its shard checkpoint, just as `fleet -coord-shard i/n` would.
func coordWorkerMain(spec string) {
	var i, n int
	if _, err := fmt.Sscanf(spec, "%d/%d", &i, &n); err != nil || n < 1 || i < 0 || i >= n {
		fmt.Fprintf(os.Stderr, "bad WHEELS_COORD_SHARD %q\n", spec)
		os.Exit(2)
	}
	if os.Getenv("WHEELS_COORD_FAILSHARD") == fmt.Sprint(i) {
		os.Exit(3) // the worker-failure test forces this shard to die early
	}
	ckpt := os.Getenv("WHEELS_COORD_CKPT")
	cfg := coordTestConfig(ckpt)
	cfg.Stride, cfg.Offset = n, i
	cfg.Checkpoint = coord.ShardPath(ckpt, i)
	if _, err := fleet.Run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// refRun produces the single-process reference: the checkpoint bytes and
// rendered report of a -workers 1 fleet over the test sweep, starting from
// whatever content ckpt already has.
func refRun(t *testing.T, ckpt string) ([]byte, string) {
	t.Helper()
	rep, err := fleet.Run(coordTestConfig(ckpt))
	if err != nil {
		t.Fatalf("reference fleet.Run: %v", err)
	}
	b, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	return b, rep.RenderText()
}

// TestMergeShardsByteIdentity is the merge property test: run the sweep's
// Stride/Offset partitions in-process — in reverse order, against shards
// seeded from a main checkpoint that already carries partial progress —
// merge, and require the merged checkpoint to be byte-identical to the
// single-process run's file, and the resume-only report identical too.
func TestMergeShardsByteIdentity(t *testing.T) {
	dir := t.TempDir()

	// Partial progress shared by both sides: one seed already done.
	partial := filepath.Join(dir, "partial.jsonl")
	pcfg := coordTestConfig(partial)
	pcfg.Seeds = 1
	if _, err := fleet.Run(pcfg); err != nil {
		t.Fatal(err)
	}
	seeded, err := os.ReadFile(partial)
	if err != nil {
		t.Fatal(err)
	}

	refCkpt := filepath.Join(dir, "ref.jsonl")
	if err := os.WriteFile(refCkpt, seeded, 0o644); err != nil {
		t.Fatal(err)
	}
	wantBytes, wantReport := refRun(t, refCkpt)

	for _, procs := range []int{2, 3} {
		ckpt := filepath.Join(dir, fmt.Sprintf("coord%d.jsonl", procs))
		if err := os.WriteFile(ckpt, seeded, 0o644); err != nil {
			t.Fatal(err)
		}
		// Seed every shard with the main checkpoint's rows, then run the
		// partitions in reverse order — the merge must not care which
		// worker finished first.
		var shardPaths []string
		for i := procs - 1; i >= 0; i-- {
			sp := coord.ShardPath(ckpt, i)
			if err := os.WriteFile(sp, seeded, 0o644); err != nil {
				t.Fatal(err)
			}
			shardPaths = append([]string{sp}, shardPaths...)
			cfg := coordTestConfig(ckpt)
			cfg.Stride, cfg.Offset = procs, i
			cfg.Checkpoint = sp
			if _, err := fleet.Run(cfg); err != nil {
				t.Fatalf("procs=%d shard %d: %v", procs, i, err)
			}
		}
		if err := coordTestConfig(ckpt).MergeShards(shardPaths); err != nil {
			t.Fatalf("procs=%d merge: %v", procs, err)
		}
		got, err := os.ReadFile(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(wantBytes) {
			t.Errorf("procs=%d: merged checkpoint differs from single-process bytes\nmerged:\n%s\nwant:\n%s", procs, got, wantBytes)
		}
		// Re-merging is a no-op: the merge is idempotent, so a coordinator
		// killed after a partial merge converges on the next attempt.
		if err := coordTestConfig(ckpt).MergeShards(shardPaths); err != nil {
			t.Fatalf("procs=%d re-merge: %v", procs, err)
		}
		again, _ := os.ReadFile(ckpt)
		if string(again) != string(wantBytes) {
			t.Errorf("procs=%d: re-merge changed the checkpoint", procs)
		}
		rep, err := fleet.Run(coordTestConfig(ckpt))
		if err != nil {
			t.Fatalf("procs=%d resume-only run: %v", procs, err)
		}
		if rep.RenderText() != wantReport {
			t.Errorf("procs=%d: resume-only report differs from single-process report", procs)
		}
	}
}

// spawnTestWorker builds the coordinator Spawn hook that re-execs this test
// binary in worker mode.
func spawnTestWorker(t *testing.T, ckpt string, extraEnv ...string) func(int, int) (*exec.Cmd, error) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return func(shard, procs int) (*exec.Cmd, error) {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			fmt.Sprintf("WHEELS_COORD_SHARD=%d/%d", shard, procs),
			"WHEELS_COORD_CKPT="+ckpt)
		cmd.Env = append(cmd.Env, extraEnv...)
		cmd.Stderr = os.Stderr
		return cmd, nil
	}
}

// TestCoordRunProcesses drives the real protocol end to end with spawned
// worker processes: coord.Run locks, seeds, spawns, waits, merges; the
// merged checkpoint and the resume-only report must match the
// single-process reference byte for byte.
func TestCoordRunProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	dir := t.TempDir()
	refCkpt := filepath.Join(dir, "ref.jsonl")
	wantBytes, wantReport := refRun(t, refCkpt)

	ckpt := filepath.Join(dir, "coord.jsonl")
	cfg := coordTestConfig(ckpt)
	err := coord.Run(coord.Config{
		Checkpoint: ckpt,
		Procs:      2,
		Spawn:      spawnTestWorker(t, ckpt),
		Merge:      cfg.MergeShards,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatalf("coord.Run: %v", err)
	}
	got, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(wantBytes) {
		t.Errorf("merged checkpoint differs from single-process bytes\nmerged:\n%s\nwant:\n%s", got, wantBytes)
	}
	rep, err := fleet.Run(cfg)
	if err != nil {
		t.Fatalf("resume-only run: %v", err)
	}
	if rep.RenderText() != wantReport {
		t.Error("resume-only report differs from single-process report")
	}
	if _, err := os.Stat(ckpt + ".lock"); !os.IsNotExist(err) {
		t.Error("coordinator left the main checkpoint lock behind")
	}
}

// TestCoordWorkerFailureSkipsMerge kills one worker mid-protocol: coord.Run
// must report the failure, leave the main checkpoint untouched, and a
// second attempt must converge on the single-process bytes — the kill/
// resume contract.
func TestCoordWorkerFailureSkipsMerge(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	dir := t.TempDir()
	refCkpt := filepath.Join(dir, "ref.jsonl")
	wantBytes, _ := refRun(t, refCkpt)

	ckpt := filepath.Join(dir, "coord.jsonl")
	cfg := coordTestConfig(ckpt)
	ccfg := coord.Config{
		Checkpoint: ckpt,
		Procs:      2,
		Spawn:      spawnTestWorker(t, ckpt, "WHEELS_COORD_FAILSHARD=1"),
		Merge:      cfg.MergeShards,
		Logf:       t.Logf,
	}
	if err := coord.Run(ccfg); err == nil {
		t.Fatal("coord.Run succeeded with a dead worker")
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Error("failed run wrote the main checkpoint before the merge")
	}
	// Shard 0 finished its half; its progress must survive into the retry.
	shard0, _, err := fleet.LoadCheckpoint(coord.ShardPath(ckpt, 0))
	if err != nil || len(shard0) == 0 {
		t.Errorf("surviving worker's shard progress lost: %d rows, err %v", len(shard0), err)
	}
	ccfg.Spawn = spawnTestWorker(t, ckpt)
	if err := coord.Run(ccfg); err != nil {
		t.Fatalf("retry coord.Run: %v", err)
	}
	got, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(wantBytes) {
		t.Errorf("post-retry checkpoint differs from single-process bytes\ngot:\n%s\nwant:\n%s", got, wantBytes)
	}
}

// BenchmarkFleetCoord measures the whole multi-process protocol — lock,
// shard seeding, two spawned worker processes each running half the sweep,
// merge — in seeds/hour, the same capacity metric as the in-process fleet
// benches. On a single-vCPU runner the two workers timeshare one core, so
// the number is informational (process overhead vs in-process pooling),
// not a scaling demonstration; byte-identity is what CI gates.
func BenchmarkFleetCoord(b *testing.B) {
	if testing.Short() {
		b.Skip("spawns worker processes")
	}
	exe, err := os.Executable()
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	cfg := coordTestConfig("")
	seeds := len(cfg.Scenarios) * cfg.Seeds
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ckpt := filepath.Join(dir, fmt.Sprintf("bench%d.jsonl", i))
		mcfg := coordTestConfig(ckpt)
		err := coord.Run(coord.Config{
			Checkpoint: ckpt,
			Procs:      2,
			Spawn: func(shard, procs int) (*exec.Cmd, error) {
				cmd := exec.Command(exe)
				cmd.Env = append(os.Environ(),
					fmt.Sprintf("WHEELS_COORD_SHARD=%d/%d", shard, procs),
					"WHEELS_COORD_CKPT="+ckpt)
				return cmd, nil
			},
			Merge: mcfg.MergeShards,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(seeds*b.N)/b.Elapsed().Hours(), "seeds/hour")
}
