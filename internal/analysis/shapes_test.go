package analysis

import (
	"testing"

	"wheels/internal/dataset"
	"wheels/internal/radio"
)

// CheckShapes evaluates every shape invariant against a materialized
// dataset by replaying it through an Accumulator, the streaming path the
// fleet scores seeds with. A dataset with no samples for a check fails that
// check; it never panics.
func CheckShapes(ds *dataset.Dataset) []ShapeResult {
	acc := NewAccumulator(ds.Seed)
	ds.EmitTo(acc)
	return acc.ShapeResults()
}

// synthShapeDataset builds a tiny dataset that satisfies every shape
// invariant by construction: static DL ≫ driving DL > driving UL, HOs/mile
// in band, T-Mobile far ahead on 5G with Verizon and AT&T together.
func synthShapeDataset() *dataset.Dataset {
	ds := &dataset.Dataset{Seed: 1}
	add := func(op radio.Operator, dir radio.Direction, static bool, tech radio.Tech, mbps float64, n int) {
		for i := 0; i < n; i++ {
			ds.Thr = append(ds.Thr, dataset.ThroughputSample{
				TestID: 1, Op: op, Dir: dir, Static: static, Tech: tech, Bps: mbps * 1e6,
			})
		}
	}
	for _, op := range radio.Operators() {
		add(op, radio.Downlink, true, radio.LTEA, 500, 10) // static DL
		add(op, radio.Uplink, false, radio.LTE, 6, 10)     // driving UL
		// Driving DL: 5G share 60% for T-Mobile, 20% for Verizon/AT&T.
		five := 2
		if op == radio.TMobile {
			five = 6
		}
		add(op, radio.Downlink, false, radio.NRMid, 20, five)
		add(op, radio.Downlink, false, radio.LTE, 15, 10-five)
		// Two driving tests at 2 handovers per mile.
		ds.Tests = append(ds.Tests,
			dataset.TestSummary{ID: 1, Op: op, Kind: dataset.TestBulkDL, Miles: 1, HOCount: 2},
			dataset.TestSummary{ID: 2, Op: op, Kind: dataset.TestBulkUL, Miles: 2, HOCount: 4},
		)
	}
	return ds
}

func TestCheckShapesPassesOnConformingData(t *testing.T) {
	res := CheckShapes(synthShapeDataset())
	checks := ShapeChecks()
	if len(res) != len(checks) {
		t.Fatalf("CheckShapes returned %d results for %d checks", len(res), len(checks))
	}
	for i, r := range res {
		if r.Name != checks[i].Name {
			t.Errorf("result %d named %q, ShapeChecks says %q", i, r.Name, checks[i].Name)
		}
		if !r.Pass {
			t.Errorf("%s failed on conforming data: %s", r.Name, r.Detail)
		}
	}
}

func TestCheckShapesFlagsViolations(t *testing.T) {
	fail := func(t *testing.T, res []ShapeResult, name string) {
		t.Helper()
		for _, r := range res {
			if r.Name == name {
				if r.Pass {
					t.Errorf("%s passed on violating data: %s", name, r.Detail)
				}
				return
			}
		}
		t.Errorf("check %s missing from results", name)
	}

	// Driving DL as fast as static: the static-dwarfs invariant must fail.
	ds := synthShapeDataset()
	for i := range ds.Thr {
		if !ds.Thr[i].Static && ds.Thr[i].Dir == radio.Downlink {
			ds.Thr[i].Bps = 400e6
		}
	}
	fail(t, CheckShapes(ds), "static-dwarfs-driving/V")

	// Handover storm: 20 HOs/mile is outside the [1, 4] band.
	ds = synthShapeDataset()
	for i := range ds.Tests {
		ds.Tests[i].HOCount = 20 * int(ds.Tests[i].Miles)
	}
	fail(t, CheckShapes(ds), "hos-per-mile-band/T")

	// T-Mobile demoted to the others' 5G share: the lead invariant fails.
	ds = synthShapeDataset()
	for i := range ds.Thr {
		if s := ds.Thr[i]; s.Op == radio.TMobile && !s.Static && s.Tech == radio.NRMid {
			ds.Thr[i].Tech = radio.LTE
		}
	}
	fail(t, CheckShapes(ds), "tmobile-5g-leads")
}

// TestCheckShapesEmptyDataset is the guard for a seed whose campaign yields
// zero tests of some kind: no panics, no NaNs, every check fails cleanly.
func TestCheckShapesEmptyDataset(t *testing.T) {
	for _, ds := range []*dataset.Dataset{{}, {Tests: []dataset.TestSummary{{ID: 1, Miles: 1}}}} {
		for _, r := range CheckShapes(ds) {
			if r.Pass {
				t.Errorf("%s passed on an empty dataset (%s)", r.Name, r.Detail)
			}
		}
	}
}

func TestShapeMedianEmpty(t *testing.T) {
	if m := ShapeMedian(nil); m != 0 {
		t.Errorf("ShapeMedian(nil) = %v, want 0", m)
	}
	if m := ShapeMedian([]float64{3, 1, 2}); m != 2 {
		t.Errorf("ShapeMedian = %v, want 2", m)
	}
}
