package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"wheels/internal/dataset"
	"wheels/internal/fleet"
)

// options are one run's settings.
type options struct {
	W          *workload
	Seed       int64 // input seed: picks where the run starts in the pool
	Seconds    int
	Trace      bool
	HeldOut    int64 // first campaign seed of a held-out run; < 0 uses the pool
	RandomSeed int64 // seed of sweep-dump's random:<seed> scenario
	Out        string
}

// coldStarts is the number of cold starts behind setup_s, each in a fresh
// process.
const coldStarts = 8

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

const mb = 1 << 20

// bench is a workload after its cold start: its compiled cells and the
// state its seeds reuse.
type bench struct {
	o       *options
	cells   []fleet.Scenario
	red     *reducer
	chk     *checker
	work    string        // scratch directory for checkpoints, reports and dumps
	compile time.Duration // scenario compile and policy build
}

// coldStart compiles the workload and runs its first seed through the
// workload's entry point. It returns the set-up time: from before scenario
// compile to the end of the first seed (its fleet Progress event on fleet
// workloads), so it covers testbed and policy build, campaign construction
// and every lazy initialisation the first seed pays.
func coldStart(o *options, chk *checker, work string) (*bench, time.Duration, error) {
	t0 := time.Now()
	cells, err := o.W.compile(o.RandomSeed)
	if err != nil {
		return nil, 0, err
	}
	s := &bench{o: o, cells: cells, red: newReducer(), chk: chk, work: work, compile: time.Since(t0)}
	start := o.W.blockStart(o.Seed, o.HeldOut, 0, o.W.PassBlocks)
	if !o.W.Fleet {
		res, err := o.W.runDirect(s.red, cells[0], start, nil)
		setup := time.Since(t0)
		chk.check(res, err)
		return s, setup, nil
	}
	// A fleet.Run whose partition holds only the sweep's first pair: the
	// first seed through the fleet's own path, with nothing after it.
	dir, err := s.scratch("cold")
	if err != nil {
		return nil, 0, err
	}
	cfg := o.W.fleetConfig(cells, start, dir)
	cfg.Stride = len(cells) * o.W.Block
	var setup time.Duration
	cfg.Progress = func(fleet.Event) {
		if setup == 0 {
			setup = time.Since(t0)
		}
	}
	rep, err := fleet.Run(cfg)
	s.checkFleet(rep, err, 1)
	return s, setup, os.RemoveAll(dir)
}

// scratch returns a fresh, empty directory under the run's scratch
// area.
func (s *bench) scratch(name string) (string, error) {
	dir := filepath.Join(s.work, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// checkFleet checks every seed of a fleet report that should hold n seeds.
func (s *bench) checkFleet(rep *fleet.Report, err error, n int) {
	if err != nil {
		s.chk.failAll(n, err)
		return
	}
	for _, sum := range rep.Summaries {
		s.chk.check(fromSummary(sum), nil)
	}
	if missing := n - len(rep.Summaries); missing != 0 {
		s.chk.failAll(missing, fmt.Errorf("fleet report holds %d seeds, want %d", len(rep.Summaries), n))
	}
}

// runBlock runs the timed loop's block at pass position p through the
// workload's entry point, timed by clk. On fleet workloads its time runs from
// fleet.Run entry through report rendering, and clk is also marked after
// every seed, so the reference is timed between seeds and host drift within
// the block is followed. It returns the seeds the block ran.
func (s *bench) runBlock(p int, clk *refClock) (int, error) {
	w := s.o.W
	start := w.blockStart(s.o.Seed, s.o.HeldOut, p, w.PassBlocks)
	if !w.Fleet {
		clk.start()
		res, err := w.runDirect(s.red, s.cells[0], start, nil)
		clk.mark()
		s.chk.check(res, err)
		return 1, nil
	}
	dir, err := s.scratch("block")
	if err != nil {
		return 0, err
	}
	n := len(s.cells) * w.Block
	cfg := w.fleetConfig(s.cells, start, dir)
	cfg.Progress = func(fleet.Event) { clk.mark() }
	clk.start()
	rep, err := fleet.Run(cfg)
	if err == nil {
		err = renderReport(rep, dir)
	}
	clk.mark()
	s.checkFleet(rep, err, n)
	return n, os.RemoveAll(dir)
}

// cpuSeconds is the process's user+sys CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's maximum resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) * 1024 / mb // Linux reports KiB
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// runUntraced is the end-to-end run: cold starts, then the timed loop.
func runUntraced(o *options) (result, *checker, error) {
	chk, err := newChecker(o.W.Name, expectedJSON, os.Stderr)
	if err != nil {
		return result{}, nil, err
	}
	// The cold starts behind setup_s, each in a fresh process, with the
	// reference timed in this one before and after each (ref.go).
	ref := newReference(o.W.RefThreads)
	cold := &refClock{ref: ref}
	cold.begin()
	for i := 0; i < coldStarts; i++ {
		cr, err := coldStartChild(o)
		if err != nil {
			return result{}, nil, err
		}
		cold.record(piece{block: i, wall: cr.SetupS})
		chk.merge(cr.Tally)
	}
	setups, _, normSetups, _ := blockTimes(cold.pieces, cold.refs, coldStarts)
	// This process's own cold start builds the state the timed loop reuses.
	work := filepath.Join(o.Out, fmt.Sprintf("work-%d", os.Getpid()))
	defer os.RemoveAll(work)
	s, _, err := coldStart(o, chk, work)
	if err != nil {
		return result{}, nil, err
	}

	// The timed loop makes whole passes over the same blocks until the run
	// length is reached, with the reference timed between pieces (ref.go).
	// Each block's cost is its normalized time, and each block position's
	// cost is its median over the passes.
	limit := time.Duration(o.Seconds) * time.Second
	var blockPos, blockSeeds []int // per block run
	clk := &refClock{ref: ref}
	clk.begin()
	passes := 0
	for t0 := time.Now(); time.Since(t0) < limit; passes++ {
		for p := 0; p < o.W.PassBlocks; p++ {
			clk.block = len(blockPos)
			n, err := s.runBlock(p, clk)
			if err != nil {
				return result{}, nil, err
			}
			blockPos = append(blockPos, p)
			blockSeeds = append(blockSeeds, n)
		}
	}
	wall, cpu, normWall, normCPU := blockTimes(clk.pieces, clk.refs, len(blockPos))
	walls := make([][]float64, o.W.PassBlocks) // per block position, every pass
	cpus := make([][]float64, o.W.PassBlocks)
	var log strings.Builder // every block of every pass, for blocks.csv
	log.WriteString("pass,position,first_seed,wall_s,cpu_s,norm_wall_s,norm_cpu_s,seeds\n")
	var totalWall float64
	seeds := 0
	for b, p := range blockPos {
		walls[p] = append(walls[p], normWall[b])
		cpus[p] = append(cpus[p], normCPU[b])
		totalWall += wall[b]
		seeds += blockSeeds[b]
		fmt.Fprintf(&log, "%d,%d,%d,%.6f,%.6f,%.6f,%.6f,%d\n", b/o.W.PassBlocks, p,
			o.W.blockStart(o.Seed, o.HeldOut, p, o.W.PassBlocks), wall[b], cpu[b], normWall[b], normCPU[b], blockSeeds[b])
	}
	var passWall, passCPU float64
	passSeeds := 0
	for p := range walls {
		passWall += median(walls[p])
		passCPU += median(cpus[p])
		passSeeds += blockSeeds[p]
	}

	res := result{Correct: chk.Failed == 0, Attempted: chk.Attempted, Failed: chk.Failed, Metrics: map[string]metric{
		"seeds_per_hour":    {float64(passSeeds) / passWall * 3600, "1/h"},
		"cpu_s_per_seed":    {passCPU / float64(passSeeds), "s"},
		"setup_s":           {median(normSetups), "s"},
		"alloc_mb_per_seed": {float64(clk.alloc) / mb / float64(seeds), "MB"},
		"peak_rss_mb":       {peakRSSMB(), "MB"},
	}}
	fmt.Printf("timed loop: %d passes, %d seeds in %.3f s of blocks (%.0f seeds/h by the wall clock); median reference %.1f ms (nominal %.0f ms)\n",
		passes, seeds, totalWall, float64(seeds)/totalWall*3600, clk.medianRef()*1e3, refNominal.Seconds()*1e3)
	fmt.Printf("cold starts: %v s by the wall clock, %v s normalized\n", roundAll(setups), roundAll(normSetups))
	if err := os.MkdirAll(outDir(o), 0o755); err != nil {
		return result{}, nil, err
	}
	return res, chk, os.WriteFile(filepath.Join(outDir(o), "blocks.csv"), []byte(log.String()), 0o644)
}

// childResult is what a cold-start child prints as its last line.
type childResult struct {
	SetupS float64    `json:"setup_s"`
	Tally  checkTally `json:"tally"`
}

// runColdChild is the -cold-child mode: one cold start, reported as JSON.
func runColdChild(o *options) error {
	chk, err := newChecker(o.W.Name, expectedJSON, os.Stderr)
	if err != nil {
		return err
	}
	work := filepath.Join(o.Out, fmt.Sprintf("work-%d", os.Getpid()))
	defer os.RemoveAll(work)
	_, setup, err := coldStart(o, chk, work)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(childResult{SetupS: setup.Seconds(), Tally: chk.tally()})
}

// coldStartChild runs one cold start in a fresh process of this binary and
// waits for it to end.
func coldStartChild(o *options) (childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return childResult{}, err
	}
	cmd := exec.Command(exe, "-cold-child", "-workload", o.W.Name,
		"-seed", strconv.FormatInt(o.Seed, 10), "-start", strconv.FormatInt(o.HeldOut, 10),
		"-random-scenario", strconv.FormatInt(o.RandomSeed, 10), "-out", o.Out)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return childResult{}, fmt.Errorf("cold-start child: %w", err)
	}
	var cr childResult
	if err := json.Unmarshal(lastLine(out.Bytes()), &cr); err != nil {
		return childResult{}, fmt.Errorf("cold-start child output: %w", err)
	}
	return cr, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int64(x*1000+0.5)) / 1000
	}
	return out
}

// runtimeSample reads the Go runtime's GC CPU estimate, GC cycle count and
// heap allocation count.
func runtimeSample() [3]float64 {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s)
	return [3]float64{s[0].Value.Float64(), float64(s[1].Value.Uint64()), float64(s[2].Value.Uint64())}
}

// seedJob is one (cell, seed) pair of a traced run.
type seedJob struct {
	cell fleet.Scenario
	seed int64
}

// traceJobs lists the traced run's seeds in fleet sweep order, block by
// block.
func (s *bench) traceJobs() []seedJob {
	w := s.o.W
	var jobs []seedJob
	for b := 0; b < w.TraceBlocks; b++ {
		start := w.blockStart(s.o.Seed, s.o.HeldOut, b, w.TraceBlocks)
		for _, c := range s.cells {
			for k := 0; k < w.Block; k++ {
				jobs = append(jobs, seedJob{c, start + int64(k)})
			}
		}
	}
	return jobs
}

// openDump opens the job's dump writer and returns it with its directory;
// the sink is nil when the workload does not dump.
func (s *bench) openDump(j seedJob) (dataset.Sink, string, error) {
	if !s.o.W.Dump {
		return nil, "", nil
	}
	d := dumper{dir: filepath.Join(s.work, "dump")}
	w, err := d.open(j.cell.Name, j.seed)
	if err != nil {
		return nil, "", err
	}
	return w, d.seedDir(j.cell.Name, j.seed), nil
}
