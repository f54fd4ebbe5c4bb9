package campaign

import (
	"testing"

	"wheels/internal/analysis"
	"wheels/internal/dataset"
	"wheels/internal/pathtest"
)

// exportBytes writes the dataset under a temp dir and returns the
// concatenated bytes of every table. It delegates to the shared helper
// so every byte-identity test (including the scenario paper-route guard)
// hashes the same form.
func exportBytes(t *testing.T, ds *dataset.Dataset) []byte {
	t.Helper()
	return pathtest.ExportBytes(t, ds)
}

// loggedConfig is a reduced campaign that still runs every phone-side
// subsystem of the network methodology: driving tests, static city
// batteries, and the passive handover-loggers.
func loggedConfig(seed int64, km float64) Config {
	cfg := QuickConfig(seed, km)
	cfg.EnablePassive = true
	cfg.EnableStatic = true
	return cfg
}

// TestTestIDsUniqueAndReferenced: the ids the schedule pre-allocates are
// campaign-unique and contiguous, driving tests number in route order, and
// every per-sample row references a test the dataset summarizes.
func TestTestIDsUniqueAndReferenced(t *testing.T) {
	ds := New(loggedConfig(23, 120)).Run()
	seen := map[int]bool{}
	maxID, lastID := 0, 0
	for _, ts := range ds.Tests {
		if seen[ts.ID] {
			t.Fatalf("test id %d appears twice", ts.ID)
		}
		seen[ts.ID] = true
		maxID = max(maxID, ts.ID)
		if ts.Static {
			continue // static batteries interleave with the cycle ids
		}
		if ts.ID <= lastID {
			t.Fatalf("driving test id %d out of order after id %d", ts.ID, lastID)
		}
		lastID = ts.ID
	}
	if maxID != len(seen) {
		t.Errorf("ids not contiguous: max id %d over %d tests", maxID, len(seen))
	}
	for _, s := range ds.Thr {
		if !seen[s.TestID] {
			t.Fatalf("throughput sample references unknown test id %d", s.TestID)
		}
	}
	for _, s := range ds.RTT {
		if !seen[s.TestID] {
			t.Fatalf("RTT sample references unknown test id %d", s.TestID)
		}
	}
	for _, h := range ds.Handovers {
		if !seen[h.TestID] {
			t.Fatalf("handover references unknown test id %d", h.TestID)
		}
	}
}

// TestLongCampaignShapes checks the EXPERIMENTS.md qualitative invariants
// on a 500 km continuous drive. The invariants themselves live in
// analysis.Accumulator — the same definition the replication fleet scores
// seeds against — so this test and the fleet verdicts cannot drift apart.
func TestLongCampaignShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-km campaign")
	}
	cfg := DefaultConfig(23)
	cfg.EnableApps = false
	cfg.EnableSpeedTest = false
	cfg.EnablePassive = false
	cfg.KmLimit = 500
	acc := analysis.NewAccumulator(cfg.Seed)
	New(cfg).RunTo(acc)
	_, shapes := acc.Summarize()
	for _, r := range shapes {
		if !r.Pass {
			t.Errorf("shape %s failed: measured %v", r.Name, r.Measured)
		}
	}
}

// TestProductionEngineRaceSmoke is the short-mode -race exercise for the
// production engine: the passive loggers and every phase kind of the
// network methodology run on the phone goroutines while the RunTo
// goroutine merges their buffers.
func TestProductionEngineRaceSmoke(t *testing.T) {
	cfg := loggedConfig(29, 90)
	cfg.Engine = EngineBatch
	ds := New(cfg).Run()
	static := 0
	for _, ts := range ds.Tests {
		if ts.Static {
			static++
		}
	}
	if len(ds.Thr) == 0 || len(ds.RTT) == 0 || len(ds.Handovers) == 0 || len(ds.Passive) == 0 || static == 0 {
		t.Fatalf("race smoke run left a table empty: %d thr, %d rtt, %d handovers, %d passive, %d static tests",
			len(ds.Thr), len(ds.RTT), len(ds.Handovers), len(ds.Passive), static)
	}
}
