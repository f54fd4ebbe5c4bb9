package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"wheels/internal/dataset"
)

// TestRunToCollectorMatchesRun pins the streaming refactor's core contract:
// Run is RunTo(Collector), so emitting into a Collector reproduces the
// materialized dataset record for record.
func TestRunToCollectorMatchesRun(t *testing.T) {
	cfg := QuickConfig(23, 60)
	ds := New(cfg).Run()
	col := dataset.NewCollector(cfg.Seed)
	New(cfg).RunTo(col)
	if err := col.Flush(); err != nil {
		t.Fatalf("collector flush: %v", err)
	}
	if !reflect.DeepEqual(ds, col.Dataset()) {
		t.Fatal("RunTo(Collector) dataset differs from Run()")
	}
}

// TestStreamedCSVRoundTripSeed23 runs the golden seed-23 configuration once
// through a Tee(Collector, ParallelCSVWriter) and checks the streaming
// export both ways: the .gz files on disk are byte-identical to a second
// ParallelCSVWriter's over the collected dataset, and Load reads them
// back into a dataset that re-exports identically.
func TestStreamedCSVRoundTripSeed23(t *testing.T) {
	if testing.Short() {
		t.Skip("golden campaign run is slow")
	}
	cfg := goldenConfig()
	streamDir := t.TempDir()
	w, err := dataset.NewParallelCSVWriter(streamDir, 0, 0)
	if err != nil {
		t.Fatalf("opening CSV writer: %v", err)
	}
	col := dataset.NewCollector(cfg.Seed)
	sink := dataset.Tee(col, w)
	New(cfg).RunTo(sink)
	if err := sink.Flush(); err != nil {
		t.Fatalf("flushing stream: %v", err)
	}
	ds := col.Dataset()

	saveDir := t.TempDir()
	sw, err := dataset.NewParallelCSVWriter(saveDir, 0, 0)
	if err != nil {
		t.Fatalf("opening CSV writer: %v", err)
	}
	ds.EmitTo(sw)
	if err := sw.Flush(); err != nil {
		t.Fatalf("flushing saved dataset: %v", err)
	}
	want, err := filepath.Glob(filepath.Join(saveDir, "*.gz"))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("saving the dataset produced no .gz files")
	}
	for _, path := range want {
		name := filepath.Base(path)
		saved, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := os.ReadFile(filepath.Join(streamDir, name))
		if err != nil {
			t.Fatalf("streamed export missing %s: %v", name, err)
		}
		if !bytes.Equal(saved, streamed) {
			t.Errorf("%s: streamed bytes differ from the saved dataset's", name)
		}
	}

	back, err := dataset.Load(streamDir)
	if err != nil {
		t.Fatalf("loading streamed export: %v", err)
	}
	if !bytes.Equal(exportBytes(t, ds), exportBytes(t, back)) {
		t.Fatal("streamed export did not round-trip to an identical dataset")
	}
}
