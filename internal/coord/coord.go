// Package coord scales a fleet sweep past one process: it partitions the
// SeedKey{Scenario, Policy, Seed} space across N spawned worker processes
// and folds their results back into one checkpoint whose bytes — and hence
// whose report — are identical to a single-process run's.
//
// Protocol (see DESIGN.md "Emit path and the multi-process coordinator"):
//
//  1. The coordinator takes the main checkpoint's exclusive lock and holds
//     it for the whole run, so no ordinary fleet can race the sweep.
//  2. Each worker i of N gets its own shard checkpoint "<ckpt>.shard<i>",
//     seeded by appending every main-checkpoint row the shard does not
//     already carry — append, never rewrite, so a shard that survived a
//     killed coordinator keeps the progress it had made.
//  3. Workers are spawned via the caller-supplied command factory (the
//     fleet CLI re-invokes itself with -coord-shard i/N) and run an
//     ordinary fleet over the same sweep with Stride=N, Offset=i: each
//     executes only its own residue class of the sweep index, resumes from
//     its shard, appends to its shard, and holds its shard's own lock. On
//     Linux workers carry PDEATHSIG, so killing the coordinator kills the
//     fleet rather than leaking N orphans.
//  4. When every worker exits cleanly, the merge callback folds the
//     shards' fresh rows into the main checkpoint in canonical sweep order
//     (fleet.Config.MergeShards) — still under the main lock. Any worker
//     failure skips the merge; the shards keep their progress for the next
//     attempt.
//
// Every step is idempotent, so kill/resume works at any point: seeding
// appends only missing rows, workers resume from their shards, and the
// merge appends only the missing suffix. After Run returns the caller
// renders the report with an ordinary resume-only fleet.Run over the
// merged checkpoint.
package coord

import (
	"errors"
	"fmt"
	"os/exec"
	"sort"

	"wheels/internal/fleet"
)

// Config wires one coordinator run.
type Config struct {
	// Checkpoint is the main checkpoint path the sweep is keyed on.
	// Required: the shard files, the lock, and the merge all derive from it.
	Checkpoint string

	// Procs is the number of worker processes to partition the sweep over.
	Procs int

	// Spawn builds (but does not start) the command for worker shard of
	// procs. The worker must run the same sweep with Stride=procs,
	// Offset=shard against the shard checkpoint ShardPath(Checkpoint,
	// shard) — the fleet CLI passes -coord-shard "shard/procs" to itself.
	Spawn func(shard, procs int) (*exec.Cmd, error)

	// Merge folds the shard checkpoints into the main one once every
	// worker has exited cleanly. It runs under the main checkpoint's lock.
	// The fleet CLI wires fleet.Config.MergeShards here; coord cannot call
	// it directly because canonical sweep order lives in the fleet config.
	Merge func(shardPaths []string) error

	// Logf, when non-nil, receives coordinator progress lines.
	Logf func(format string, args ...any)
}

// ShardPath names worker shard's checkpoint file.
func ShardPath(ckpt string, shard int) string {
	return fmt.Sprintf("%s.shard%d", ckpt, shard)
}

// Run executes the coordinator protocol: lock, seed, spawn, wait, merge.
// On any worker failure the merge is skipped and the error reports every
// failed shard; completed work stays in the shard files for the next run.
func Run(cfg Config) error {
	if cfg.Checkpoint == "" {
		return fmt.Errorf("coord: Checkpoint is required")
	}
	if cfg.Procs < 1 {
		return fmt.Errorf("coord: Procs must be positive, got %d", cfg.Procs)
	}
	lock, err := fleet.AcquireCheckpointLock(cfg.Checkpoint)
	if err != nil {
		return fmt.Errorf("coord: %w", err)
	}
	defer lock.Release()

	shardPaths := make([]string, cfg.Procs)
	for i := range shardPaths {
		shardPaths[i] = ShardPath(cfg.Checkpoint, i)
	}
	if err := seedShards(cfg.Checkpoint, shardPaths); err != nil {
		return err
	}

	cmds := make([]*exec.Cmd, cfg.Procs)
	for i := range cmds {
		cmd, err := cfg.Spawn(i, cfg.Procs)
		if err != nil {
			return fmt.Errorf("coord: building worker %d: %w", i, err)
		}
		setPdeathsig(cmd)
		cmds[i] = cmd
	}
	for i, cmd := range cmds {
		if err := cmd.Start(); err != nil {
			// Workers already started keep running to completion — their
			// progress lands in their shards — but without a full set the
			// merge cannot happen, so fail after waiting for them.
			for _, prev := range cmds[:i] {
				prev.Wait()
			}
			return fmt.Errorf("coord: starting worker %d: %w", i, err)
		}
		cfg.logf("coord: worker %d/%d started (pid %d, shard %s)", i, cfg.Procs, cmd.Process.Pid, shardPaths[i])
	}
	var failures []error
	for i, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			failures = append(failures, fmt.Errorf("worker %d (shard %s): %w", i, shardPaths[i], err))
			continue
		}
		cfg.logf("coord: worker %d/%d done", i, cfg.Procs)
	}
	if len(failures) > 0 {
		return fmt.Errorf("coord: %d of %d workers failed, merge skipped (shard progress kept): %w",
			len(failures), cfg.Procs, errors.Join(failures...))
	}

	if cfg.Merge != nil {
		if err := cfg.Merge(shardPaths); err != nil {
			return fmt.Errorf("coord: %w", err)
		}
		cfg.logf("coord: %d shards merged into %s", cfg.Procs, cfg.Checkpoint)
	}
	return nil
}

func (cfg Config) logf(format string, args ...any) {
	if cfg.Logf != nil {
		cfg.Logf(format, args...)
	}
}

// seedShards brings every shard checkpoint up to date with the main one by
// appending the main rows the shard lacks, in a deterministic (scenario,
// policy, seed) order. Appending — never rewriting — preserves whatever
// progress a shard accumulated before a kill; rows the shard has that the
// main file lacks (work finished but not yet merged) are left exactly
// where they are for the worker to resume from.
func seedShards(main string, shardPaths []string) error {
	rows, _, err := fleet.LoadCheckpoint(main)
	if err != nil {
		return fmt.Errorf("coord: reading checkpoint: %w", err)
	}
	if len(rows) == 0 {
		return nil
	}
	keys := make([]fleet.SeedKey, 0, len(rows))
	for key := range rows {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Scenario != b.Scenario {
			return a.Scenario < b.Scenario
		}
		if a.Policy != b.Policy {
			return a.Policy < b.Policy
		}
		return a.Seed < b.Seed
	})
	for _, path := range shardPaths {
		have, _, err := fleet.LoadCheckpoint(path)
		if err != nil {
			return fmt.Errorf("coord: reading shard %s: %w", path, err)
		}
		var missing []fleet.SeedSummary
		for _, key := range keys {
			if _, ok := have[key]; !ok {
				missing = append(missing, rows[key])
			}
		}
		if len(missing) == 0 {
			continue
		}
		if err := fleet.AppendSummaries(path, missing); err != nil {
			return fmt.Errorf("coord: seeding shard %s: %w", path, err)
		}
	}
	return nil
}
