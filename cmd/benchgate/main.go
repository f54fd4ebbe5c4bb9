// Command benchgate compares metrics between two benchjson reports and
// fails when a current value regresses past its budget. CI runs it against
// the committed baseline (BENCH_fleet.json) so a perf regression fails the
// build instead of silently landing.
//
// Usage:
//
//	benchgate -gate NAME:METRIC:BUDGET[:higher] [-gate ...] baseline.json current.json
//
// Each -gate spec names a benchmark, a metric — a custom `go test -bench`
// unit published via b.ReportMetric ("seeds/hour", "live-MB/seed", ...) or
// the built-in "ns/op" — and a maximum regression percentage. Lower is
// better by default; a trailing ":higher" marks throughput-style metrics.
//
// Every gate prints one verdict line. A gate with nothing to compare
// fails: a benchmark or metric missing from either report, or a report that
// could not be read. The ledger changes in the same commit as its gates, so
// a missing row means a renamed or deleted bench lost its gate. Only a zero
// baseline warns, since no percentage of zero can be budgeted.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
)

// result mirrors the benchjson Result fields the gate reads.
type result struct {
	Name    string             `json:"name"`
	NsPerOp float64            `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics"`
}

// gate is one NAME:METRIC:BUDGET[:higher] spec.
type gate struct {
	name   string
	metric string
	budget float64
	higher bool
}

func parseGate(spec string) (gate, error) {
	parts := strings.Split(spec, ":")
	if len(parts) < 3 || len(parts) > 4 {
		return gate{}, fmt.Errorf("gate %q: want NAME:METRIC:BUDGET[:higher]", spec)
	}
	budget, err := strconv.ParseFloat(parts[2], 64)
	if err != nil {
		return gate{}, fmt.Errorf("gate %q: bad budget: %v", spec, err)
	}
	g := gate{name: parts[0], metric: parts[1], budget: budget}
	if len(parts) == 4 {
		if parts[3] != "higher" {
			return gate{}, fmt.Errorf("gate %q: trailing field must be \"higher\"", spec)
		}
		g.higher = true
	}
	return g, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchgate: ")
	var gates []gate
	flag.Func("gate", "repeatable NAME:METRIC:BUDGET[:higher] gate spec", func(spec string) error {
		g, err := parseGate(spec)
		if err != nil {
			return err
		}
		gates = append(gates, g)
		return nil
	})
	flag.Parse()
	if len(gates) == 0 || flag.NArg() != 2 {
		log.Fatal("usage: benchgate -gate NAME:METRIC:BUDGET[:higher] [-gate ...] baseline.json current.json")
	}

	// An unreadable report is logged and gates as an empty one: every
	// gate then fails on its missing side.
	base := load(flag.Arg(0))
	cur := load(flag.Arg(1))
	if evalGates(os.Stdout, base, cur, gates) {
		os.Exit(1)
	}
}

// evalGates prints one verdict line per gate and reports whether any gate
// failed. It is the whole comparison engine, split from main so the
// verdicts are testable without exec'ing the binary.
func evalGates(w io.Writer, base, cur []result, gates []gate) bool {
	fail := false
	for _, g := range gates {
		label := g.name + " " + g.metric
		baseV, haveBase := lookup(base, g.name, g.metric)
		curV, haveCur := lookup(cur, g.name, g.metric)
		switch {
		case !haveBase:
			fmt.Fprintf(w, "%-50s baseline missing, current %.3f FAIL\n", label, curV)
			fail = true
			continue
		case !haveCur:
			fmt.Fprintf(w, "%-50s current missing, baseline %.3f FAIL\n", label, baseV)
			fail = true
			continue
		case baseV == 0:
			fmt.Fprintf(w, "%-50s baseline is zero — not gated (warning)\n", label)
			continue
		}
		// Regression percentage, positive when current is worse.
		regress := (curV - baseV) / baseV * 100
		if g.higher {
			regress = (baseV - curV) / baseV * 100
		}
		verdict := "ok"
		if regress > g.budget {
			verdict = "FAIL"
			fail = true
		}
		fmt.Fprintf(w, "%-50s old %.3f  new %.3f  delta %+.1f%%  (budget %.0f%%) %s\n",
			label, baseV, curV, regress, g.budget, verdict)
	}
	return fail
}

// load reads one benchjson report, logging why it could not.
func load(path string) []result {
	data, err := os.ReadFile(path)
	if err != nil {
		log.Print(err)
		return nil
	}
	var results []result
	if err := json.Unmarshal(data, &results); err != nil {
		log.Printf("%s: %v", path, err)
		return nil
	}
	return results
}

// lookup returns the named benchmark's metric value.
func lookup(results []result, name, metric string) (float64, bool) {
	for _, r := range results {
		if r.Name != name {
			continue
		}
		if metric == "ns/op" {
			return r.NsPerOp, true
		}
		v, ok := r.Metrics[metric]
		return v, ok
	}
	return 0, false
}
