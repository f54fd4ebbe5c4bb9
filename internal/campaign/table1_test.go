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
// reads a dataset — distance and float sums (Rx/Tx GB, runtime) included.
// App tests run too, so test and app runtimes arrive interleaved. A drive
// limited to 25 km reports how far its furthest sample got, not the limit.
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
	got := streamed.Table1(c.Route)
	want := analysis.ComputeTable1(ds, c.Route)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("streamed Table 1 differs from the replayed one:\n%+v\n%+v", got, want)
	}

	short := New(QuickConfig(23, 25))
	ds = short.Run()
	var furthest float64
	for _, s := range ds.Thr {
		furthest = max(furthest, s.Km)
	}
	for _, s := range ds.RTT {
		furthest = max(furthest, s.Km)
	}
	if d := analysis.ComputeTable1(ds, short.Route).DistanceKm; d != furthest || d == 25 {
		t.Errorf("25 km drive: Table 1 distance %v km, want the furthest sample's %v km", d, furthest)
	}
}
