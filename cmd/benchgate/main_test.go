package main

import (
	"strings"
	"testing"
)

func mkResults(name, metric string, v float64) []result {
	return []result{{Name: name, NsPerOp: 1e6, Metrics: map[string]float64{metric: v}}}
}

// TestRegressionGate pins the verdicts of both gate directions: a
// higher-is-better floor at 3% (the committed BenchmarkFleetBatch baseline
// on both sides of 0.97x) and a lower-is-better budget.
func TestRegressionGate(t *testing.T) {
	cases := []struct {
		name     string
		g        gate
		base     float64
		cur      float64
		wantFail bool
	}{
		{"higher: within 3%", gate{"B", "seeds/hour", 3, true}, 41535, 40290, false},
		{"higher: past 3%", gate{"B", "seeds/hour", 3, true}, 41535, 40280, true},
		{"higher: gain", gate{"B", "seeds/hour", 3, true}, 41535, 60000, false},
		{"lower: within 20%", gate{"B", "live-MB/seed", 20, false}, 3.891, 4.6, false},
		{"lower: past 20%", gate{"B", "live-MB/seed", 20, false}, 3.891, 4.7, true},
		{"lower: gain", gate{"B", "live-MB/seed", 20, false}, 3.891, 1, false},
	}
	for _, tc := range cases {
		var out strings.Builder
		fail := evalGates(&out, mkResults("B", tc.g.metric, tc.base), mkResults("B", tc.g.metric, tc.cur), []gate{tc.g})
		if fail != tc.wantFail {
			t.Errorf("%s: fail = %v, want %v\n%s", tc.name, fail, tc.wantFail, out.String())
		}
	}
}

// TestGateWithNothingToCompareFails pins that a gate fails when either
// side of its comparison is absent, so a renamed or deleted bench cannot
// silently lose its gate; only a zero baseline warns.
func TestGateWithNothingToCompareFails(t *testing.T) {
	g := gate{name: "B", metric: "seeds/hour", budget: 3, higher: true}
	ok := mkResults("B", "seeds/hour", 1000)
	cases := []struct {
		name     string
		base     []result
		cur      []result
		wantFail bool
		wantSub  string
	}{
		{"baseline bench missing", mkResults("Other", "seeds/hour", 1000), ok, true, "baseline missing"},
		{"baseline metric missing", mkResults("B", "live-MB/seed", 1), ok, true, "baseline missing"},
		{"baseline unreadable", nil, ok, true, "baseline missing"},
		{"current bench missing", ok, mkResults("Other", "seeds/hour", 1000), true, "current missing"},
		{"current metric missing", ok, mkResults("B", "live-MB/seed", 1), true, "current missing"},
		{"zero baseline", mkResults("B", "seeds/hour", 0), ok, false, "baseline is zero"},
	}
	for _, tc := range cases {
		var out strings.Builder
		fail := evalGates(&out, tc.base, tc.cur, []gate{g})
		if fail != tc.wantFail {
			t.Errorf("%s: fail = %v, want %v\n%s", tc.name, fail, tc.wantFail, out.String())
		}
		if !strings.Contains(out.String(), tc.wantSub) {
			t.Errorf("%s: output missing %q:\n%s", tc.name, tc.wantSub, out.String())
		}
	}
}

func TestParseGate(t *testing.T) {
	g, err := parseGate("BenchmarkFleetBatch:seeds/hour:3:higher")
	if err != nil {
		t.Fatal(err)
	}
	if g != (gate{name: "BenchmarkFleetBatch", metric: "seeds/hour", budget: 3, higher: true}) {
		t.Fatalf("parsed %+v", g)
	}
	if g, err := parseGate("B:live-MB/seed:20"); err != nil || g.higher || g.budget != 20 {
		t.Fatalf("parsed %+v, %v", g, err)
	}
	for _, bad := range []string{
		"a:b",            // too few fields
		"a:b:3:higher:x", // too many
		"a:b:x",          // budget not a number
		"a:b:3:lower",    // trailing field must be "higher"
	} {
		if _, err := parseGate(bad); err == nil {
			t.Errorf("parseGate(%q): want error", bad)
		}
	}
}
