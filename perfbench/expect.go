package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// expectedJSON holds the expected output of every checked pool seed,
// generated with -gen-expected on the batch engine (which the repository's
// differential tests tie to the scalar oracle).
//
//go:embed expected.json
var expectedJSON []byte

// expectedFile is the layout of expected.json: per workload, one entry per
// pool seed and cell.
type expectedFile struct {
	Workloads map[string][]seedResult `json:"workloads"`
}

type cellSeed struct {
	Scenario, Policy string
	Seed             int64
}

// seedLog is one seed's line in the run's seeds.jsonl.
type seedLog struct {
	seedResult
	Status string `json:"status"` // "ok", "mismatch", "unverified" or "error"
	Error  string `json:"error,omitempty"`
}

// checker compares every seed a run produces with the expected outputs and
// keeps the tallies behind failed_frac.
type checker struct {
	workload   string
	want       map[cellSeed]seedResult
	report     io.Writer // mismatches are printed here
	Attempted  int
	Failed     int
	Unverified int // seeds outside expected.json (held-out seeds)
	Log        []seedLog
}

func newChecker(workload string, raw []byte, report io.Writer) (*checker, error) {
	var f expectedFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("reading expected outputs: %w", err)
	}
	c := &checker{workload: workload, want: map[cellSeed]seedResult{}, report: report}
	for _, e := range f.Workloads[workload] {
		c.want[cellSeed{e.Scenario, e.Policy, e.Seed}] = e
	}
	return c, nil
}

// check records one produced seed. err is the seed's run or Flush error.
func (c *checker) check(got seedResult, err error) {
	c.Attempted++
	if err != nil {
		c.Failed++
		c.Log = append(c.Log, seedLog{seedResult: got, Status: "error", Error: err.Error()})
		fmt.Fprintf(c.report, "perfbench: %s %s/%s seed %d failed: %v\n", c.workload, got.Scenario, got.Policy, got.Seed, err)
		return
	}
	want, ok := c.want[cellSeed{got.Scenario, got.Policy, got.Seed}]
	if !ok {
		c.Unverified++
		c.Log = append(c.Log, seedLog{seedResult: got, Status: "unverified"})
		return
	}
	status := "ok"
	if got.SHA256 != want.SHA256 {
		status = "mismatch"
		fmt.Fprintf(c.report, "perfbench: MISMATCH %s %s/%s seed %d: dataset sha256 %s, want %s\n",
			c.workload, got.Scenario, got.Policy, got.Seed, got.SHA256, want.SHA256)
	}
	g, w := got.tables(), want.tables()
	for i := range g {
		if g[i] != w[i] {
			status = "mismatch"
			fmt.Fprintf(c.report, "perfbench: MISMATCH %s %s/%s seed %d: table %s has %d records, want %d\n",
				c.workload, got.Scenario, got.Policy, got.Seed, tableNames[i], g[i], w[i])
		}
	}
	if status != "ok" {
		c.Failed++
	}
	c.Log = append(c.Log, seedLog{seedResult: got, Status: status})
}

// failAll counts n seeds that produced nothing because their run failed.
func (c *checker) failAll(n int, err error) {
	c.Attempted += n
	c.Failed += n
	c.Log = append(c.Log, seedLog{Status: "error", Error: fmt.Sprintf("%d seeds: %v", n, err)})
	fmt.Fprintf(c.report, "perfbench: %s: %d seeds failed: %v\n", c.workload, n, err)
}

// merge adds another checker's tallies and log (a cold-start child's).
func (c *checker) merge(o checkTally) {
	c.Attempted += o.Attempted
	c.Failed += o.Failed
	c.Unverified += o.Unverified
	c.Log = append(c.Log, o.Log...)
}

// checkTally is the part of a checker a child process reports back.
type checkTally struct {
	Attempted, Failed, Unverified int
	Log                           []seedLog
}

func (c *checker) tally() checkTally {
	return checkTally{Attempted: c.Attempted, Failed: c.Failed, Unverified: c.Unverified, Log: c.Log}
}

// FailedFrac is failed seeds over attempted seeds.
func (c *checker) FailedFrac() float64 {
	if c.Attempted == 0 {
		return 1
	}
	return float64(c.Failed) / float64(c.Attempted)
}

// writeSeedLog writes every checked seed as one JSON line.
func (c *checker) writeSeedLog(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, l := range c.Log {
		if err := enc.Encode(l); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// writeExpected writes expected.json from the given results, sorted so the
// file is stable.
func writeExpected(path string, byWorkload map[string][]seedResult) error {
	for _, rs := range byWorkload {
		sort.Slice(rs, func(i, j int) bool {
			a, b := rs[i], rs[j]
			if a.Scenario != b.Scenario {
				return a.Scenario < b.Scenario
			}
			if a.Policy != b.Policy {
				return a.Policy < b.Policy
			}
			return a.Seed < b.Seed
		})
	}
	// One entry per line keeps the file reviewable line by line.
	var buf bytes.Buffer
	buf.WriteString("{\"workloads\": {")
	for i, name := range sortedKeys(byWorkload) {
		if i > 0 {
			buf.WriteString(",")
		}
		fmt.Fprintf(&buf, "\n %q: [", name)
		for j, r := range byWorkload[name] {
			if j > 0 {
				buf.WriteString(",")
			}
			line, err := json.Marshal(r)
			if err != nil {
				return err
			}
			buf.WriteString("\n  ")
			buf.Write(line)
		}
		buf.WriteString("\n ]")
	}
	buf.WriteString("\n}}\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
