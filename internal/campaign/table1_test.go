package campaign

import (
	"reflect"
	"testing"

	"wheels/internal/analysis"
	"wheels/internal/dataset"
)

// TestStreamedTable1MatchesReplay: Table 1 reduced from a campaign's
// record stream, the way drivesim prints it, equals ComputeTable1 over the
// same records collected and replayed table by table, the way figures
// reads a dataset — float sums (Rx/Tx GB, runtime) included. App tests run
// too, so test and app runtimes arrive interleaved.
func TestStreamedTable1MatchesReplay(t *testing.T) {
	cfg := loggedConfig(23, 60)
	cfg.EnableApps = true
	c := New(cfg)
	var streamed analysis.Table1Sink
	col := dataset.NewCollector(cfg.Seed)
	c.RunTo(dataset.Tee(&streamed, col))
	ds := col.Dataset()
	if len(ds.Passive) == 0 || len(ds.Apps) == 0 || len(ds.Handovers) == 0 {
		t.Fatalf("campaign emitted %d passive samples, %d app runs, %d handovers; want some of each",
			len(ds.Passive), len(ds.Apps), len(ds.Handovers))
	}
	states, cities := c.Route.Reached(c.EndKm())
	got := streamed.Table1(c.EndKm(), states, cities)
	want := analysis.ComputeTable1(ds, c.EndKm(), states, cities)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("streamed Table 1 differs from the replayed one:\n%+v\n%+v", got, want)
	}
}
