package fleet

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"

	"wheels/internal/analysis"
	"wheels/internal/campaign"
	"wheels/internal/dataset"
)

// Config scopes a fleet run.
type Config struct {
	// Base is the per-seed campaign template. Seed and Progress are
	// overwritten per job, and a scenario's Configure hook may rewrite the
	// rest; within one scenario everything but the seed applies to every
	// campaign identically — the fleet varies only the randomness.
	Base campaign.Config

	// Scenarios is the list of routes to sweep the seed range over, in
	// sweep order. Empty means the single paper scenario with the default
	// shape thresholds — the pre-scenario fleet, byte for byte.
	Scenarios []Scenario

	StartSeed int64 // first seed; the fleet runs StartSeed..StartSeed+Seeds-1
	Seeds     int   // number of campaigns per scenario
	Workers   int   // max campaigns in flight at once (0 = GOMAXPROCS)

	// Stride, when > 1, narrows the run to every Stride-th pair of the
	// sweep: only the (scenario, seed) pairs whose sweep index —
	// scenarioIndex*Seeds + (seed − StartSeed), the position a -workers 1
	// fleet would run the pair at — is ≡ 0 (mod Stride) are run or adopted
	// from the checkpoint. Checkpoint rows for the other pairs stay in the
	// file untouched. Stride <= 1 (the zero value) is the whole sweep.
	Stride int

	// Checkpoint, when set, is the JSONL file completed seeds append to
	// and resume reads from. (Scenario, policy, seed) rows already present
	// are not re-run, so one checkpoint file carries a whole multi-scenario
	// sweep; rows written by route-sharded builds are ignored (see
	// ParseCheckpoint) and counted in Report.ShardedRows. The fleet holds
	// an exclusive lock file ("<checkpoint>.lock") for the whole run: a
	// second fleet pointed at the same checkpoint fails fast instead of
	// interleaving writes.
	Checkpoint string

	// VerifyResume re-runs every resumed seed through the streaming engine
	// and compares the recomputed dataset SHA-256 against the checkpointed
	// one, flagging disagreement via Event.HashMismatch. A mismatch means
	// the checkpoint was written by a different engine than the one now
	// running (code drift); the checkpointed summary still feeds the report
	// unchanged, so resume stays byte-identical — the flag is a warning,
	// not a correction. Checkpoints from builds that predate the hash carry
	// no fingerprint and are flagged as unverifiable.
	VerifyResume bool

	// SeedSink, when non-nil, supplies an extra sink each freshly-run
	// seed's record stream is teed into as it is produced (the CLI wires a
	// per-seed ParallelCSVWriter here to dump datasets while the fleet
	// reduces them). Its scenario argument is the cell's report label: the
	// bare scenario name under the default policy, name@policy otherwise,
	// so every (scenario, policy, seed) gets a distinct sink. It is called
	// from worker goroutines; the sink it returns is owned and flushed by
	// the fleet, and a construction or flush error fails the run. A sink
	// with a HashSink-compatible Sum() string method (ParallelCSVWriter)
	// also supplies the seed's DatasetSHA256, in place of the fleet's own
	// hash sink. Resumed seeds are not re-streamed, so they produce no dump.
	SeedSink func(scenario string, seed int64) (dataset.Sink, error)

	// Progress, when non-nil, observes every completed or skipped seed.
	// It is called from worker goroutines under the fleet's collector
	// lock: events arrive serialized with monotonically increasing Done.
	Progress func(Event)
}

// scenarios returns the normalized sweep list: an empty Config.Scenarios
// becomes the single paper scenario, empty names become "paper", a zero
// Shapes becomes the paper thresholds, and a nil Testbed becomes the paper
// testbed (built once and shared by every scenario that needs it).
func (cfg Config) scenarios() ([]Scenario, error) {
	list := cfg.Scenarios
	if len(list) == 0 {
		list = []Scenario{{}}
	}
	out := make([]Scenario, len(list))
	seen := map[SeedKey]bool{}
	var paperTB *campaign.Testbed
	for i, sn := range list {
		if sn.Name == "" {
			sn.Name = "paper"
		}
		if sn.Shapes == (analysis.ShapeParams{}) {
			sn.Shapes = analysis.DefaultShapeParams()
		}
		if sn.Testbed == nil {
			if paperTB == nil {
				paperTB = campaign.NewTestbed()
			}
			sn.Testbed = paperTB
		}
		if sn.Policy == "" {
			sn.Policy = sn.Testbed.PolicyDigest()
		}
		key := SeedKey{Scenario: sn.Name, Policy: sn.Policy}
		if seen[key] {
			return nil, fmt.Errorf("scenario %q with policy %q listed twice — its checkpoint rows would be indistinguishable", sn.Name, sn.Policy)
		}
		seen[key] = true
		out[i] = sn
	}
	return out, nil
}

// Event reports one seed's completion to Config.Progress.
type Event struct {
	Scenario    string
	Policy      string // handover-policy digest ("" = default policy)
	PolicyName  string // display label for Policy, when the sweep named it
	Seed        int64
	Done, Total int  // completed campaigns after this event, across scenarios
	Resumed     bool // loaded from the checkpoint, not re-run
	ShapesPass  int  // shape invariants this seed replicated
	ShapesTotal int
	// HashMismatch is set only under Config.VerifyResume, on resumed seeds
	// whose recomputed dataset hash disagrees with the checkpointed one
	// (or whose checkpoint predates hashing and cannot be verified).
	HashMismatch bool
}

// Run executes the fleet and returns the cross-seed report. The report is
// a pure function of (Base, Scenarios, StartSeed, Seeds): worker count,
// scheduling, kills and checkpoint resumes cannot change a byte of it.
//
// The seed-independent campaign substrate (route, server registry, per-
// scenario deployment densities) is built once per scenario and shared
// read-only by every worker, and each worker reuses one reduction pipeline
// (accumulator + hash sink) across all the seeds it runs, so fleet
// throughput scales with the simulation work, not with per-seed setup and
// GC churn.
func Run(cfg Config) (*Report, error) {
	if cfg.Seeds <= 0 {
		return nil, fmt.Errorf("fleet: Seeds must be positive, got %d", cfg.Seeds)
	}
	scenarios, err := cfg.scenarios()
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	// Report groups and sweep order key on the scenario label (name, or
	// name@policy in a policy sweep); resume keys on the (scenario, policy)
	// cell itself.
	names := make([]string, len(scenarios))
	order := map[string]int{}
	cellIdx := map[SeedKey]int{}
	for i, sn := range scenarios {
		names[i] = sn.label()
		order[sn.label()] = i
		cellIdx[SeedKey{Scenario: sn.Name, Policy: sn.Policy}] = i
	}
	// inStride reports whether a (scenario index, seed) pair is one of the
	// sweep positions Stride keeps: every pair when Stride <= 1.
	stride := max(cfg.Stride, 1)
	inStride := func(scnIdx int, seed int64) bool {
		return (scnIdx*cfg.Seeds+int(seed-cfg.StartSeed))%stride == 0
	}
	total := 0
	for i := range scenarios {
		for seed := cfg.StartSeed; seed < cfg.StartSeed+int64(cfg.Seeds); seed++ {
			if inStride(i, seed) {
				total++
			}
		}
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// The checkpoint is exclusive for the whole run: resume reads and
	// completion appends from two fleets would corrupt each other.
	if cfg.Checkpoint != "" {
		lock, err := acquireCheckpointLock(cfg.Checkpoint)
		if err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
		defer lock.Release()
	}

	// Resume: adopt checkpointed summaries for the (scenario, policy, seed)
	// rows this run sweeps. Rows for scenarios, seeds or Stride positions it
	// does not run are left alone; they stay in the file for the fleet that
	// does run them.
	done := map[SeedKey]SeedSummary{}
	sharded := 0
	if cfg.Checkpoint != "" {
		prev, n, err := LoadCheckpoint(cfg.Checkpoint)
		if err != nil {
			return nil, fmt.Errorf("fleet: reading checkpoint: %w", err)
		}
		sharded = n
		for key, sum := range prev {
			cell := SeedKey{Scenario: key.Scenario, Policy: key.Policy}
			ci, swept := cellIdx[cell]
			if swept && key.Seed >= cfg.StartSeed && key.Seed < cfg.StartSeed+int64(cfg.Seeds) && inStride(ci, key.Seed) {
				done[key] = sum
			}
		}
	}
	var ckpt *os.File
	if cfg.Checkpoint != "" {
		f, err := openCheckpointAppend(cfg.Checkpoint)
		if err != nil {
			return nil, fmt.Errorf("fleet: opening checkpoint: %w", err)
		}
		ckpt = f
		defer ckpt.Close()
	}

	completed := 0
	emit := func(sum SeedSummary, resumed, mismatch bool) {
		completed++
		if cfg.Progress == nil {
			return
		}
		pass := 0
		for _, ok := range sum.Shapes {
			if ok {
				pass++
			}
		}
		cfg.Progress(Event{
			Scenario: sum.Scenario, Policy: sum.Policy, PolicyName: sum.PolicyName,
			Seed: sum.Seed, Done: completed, Total: total, Resumed: resumed,
			ShapesPass: pass, ShapesTotal: len(sum.Shapes),
			HashMismatch: mismatch,
		})
	}

	// Partition the sweep before any worker starts: the scheduling
	// decisions read `done`, which workers mutate, so all reads happen
	// strictly before the first job is queued. Resumed seeds are announced
	// here in sweep order — except under VerifyResume, where they re-run
	// through the pool and are announced as their verification completes.
	type job struct {
		sn     int // index into scenarios
		seed   int64
		stored SeedSummary // valid only when verify is set
		verify bool
	}
	var jobs []job
	for i, sn := range scenarios {
		for seed := cfg.StartSeed; seed < cfg.StartSeed+int64(cfg.Seeds); seed++ {
			if !inStride(i, seed) {
				continue
			}
			if stored, ok := done[SeedKey{Scenario: sn.Name, Policy: sn.Policy, Seed: seed}]; ok {
				if cfg.VerifyResume {
					jobs = append(jobs, job{sn: i, seed: seed, stored: stored, verify: true})
				} else {
					emit(stored, true, false)
				}
				continue
			}
			jobs = append(jobs, job{sn: i, seed: seed})
		}
	}

	// The worker pool: a fixed set of goroutines draining the job queue.
	// Each job streams its campaign straight into the worker's reusable
	// per-seed reduction (analysis.Accumulator + dataset.HashSink), so a
	// running seed's records are dropped as they are produced and peak
	// memory is O(workers) accumulators, never a materialized dataset.
	var (
		mu     sync.Mutex
		wg     sync.WaitGroup
		runErr error
	)
	queue := make(chan job)
	fail := func(err error) {
		mu.Lock()
		if runErr == nil {
			runErr = err
		}
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := newSeedScratch()
			for jb := range queue {
				sn := scenarios[jb.sn]
				c := cfg.Base
				c.Seed = jb.seed
				c.Progress = nil
				if sn.Configure != nil {
					c = sn.Configure(c)
				}
				if jb.verify {
					re, err := runSeed(c, sn, sc, nil)
					if err != nil {
						fail(fmt.Errorf("fleet: re-running %s seed %d: %w", sn.label(), jb.seed, err))
						continue
					}
					mismatch := jb.stored.DatasetSHA256 == "" || jb.stored.DatasetSHA256 != re.DatasetSHA256
					mu.Lock()
					emit(jb.stored, true, mismatch)
					mu.Unlock()
					continue
				}
				var extra dataset.Sink
				if cfg.SeedSink != nil {
					s, err := cfg.SeedSink(sn.label(), jb.seed)
					if err != nil {
						fail(fmt.Errorf("fleet: opening %s seed %d sink: %w", sn.label(), jb.seed, err))
						continue
					}
					extra = s
				}
				sum, err := runSeed(c, sn, sc, extra)
				if err != nil {
					fail(fmt.Errorf("fleet: streaming %s seed %d: %w", sn.label(), jb.seed, err))
					continue
				}
				mu.Lock()
				done[SeedKey{Scenario: sn.Name, Policy: sn.Policy, Seed: jb.seed}] = sum
				if ckpt != nil {
					if err := appendSummary(ckpt, sum); err != nil && runErr == nil {
						runErr = fmt.Errorf("fleet: writing checkpoint: %w", err)
					}
				}
				emit(sum, false, false)
				mu.Unlock()
			}
		}()
	}
	for _, jb := range jobs {
		queue <- jb
	}
	close(queue)
	wg.Wait()
	if runErr != nil {
		return nil, runErr
	}

	// Sort by (sweep position, seed): the report's grouping is the sweep
	// order the caller asked for, not map iteration order.
	sums := make([]SeedSummary, 0, len(done))
	for _, sum := range done {
		sums = append(sums, sum)
	}
	sort.Slice(sums, func(i, j int) bool {
		if oi, oj := order[sums[i].group()], order[sums[j].group()]; oi != oj {
			return oi < oj
		}
		return sums[i].Seed < sums[j].Seed
	})
	return &Report{StartSeed: cfg.StartSeed, Seeds: cfg.Seeds, Scenarios: names, Summaries: sums, ShardedRows: sharded}, nil
}
