package dataset

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestCollectorRoundTrip: replaying a dataset into a Collector reproduces
// it exactly — EmitTo order and Collector appends are the identity pair the
// streaming refactor rests on.
func TestCollectorRoundTrip(t *testing.T) {
	ds := fuzzSeedDataset()
	col := NewCollector(ds.Seed)
	ds.EmitTo(col)
	if err := col.Flush(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ds, col.Dataset()) {
		t.Fatal("EmitTo(Collector) did not reproduce the dataset")
	}
}

// TestSaveMatchesCSVOracle: Save's plain files and the gunzipped files of
// a ParallelCSVWriter both equal the encoding/csv oracle for the same dataset —
// same headers, same row encoding, table by table.
func TestSaveMatchesCSVOracle(t *testing.T) {
	ds := fuzzSeedDataset()
	oracleDir, plainDir, gzDir := t.TempDir(), t.TempDir(), t.TempDir()
	writeOracle(t, oracleDir, ds)
	if err := ds.Save(plainDir); err != nil {
		t.Fatal(err)
	}
	writeGzip(t, ds, gzDir)
	for _, name := range csvFiles {
		want := readFile(t, filepath.Join(oracleDir, name))
		if got := readFile(t, filepath.Join(plainDir, name)); !bytes.Equal(got, want) {
			t.Errorf("%s: Save bytes differ from the encoding/csv oracle", name)
		}
		if got := gunzipFile(t, filepath.Join(gzDir, name+".gz")); !bytes.Equal(got, want) {
			t.Errorf("%s: gunzipped ParallelCSVWriter bytes differ from the encoding/csv oracle", name)
		}
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestHashSinkFingerprint: the hash is deterministic for identical streams
// and moves when any record changes.
func TestHashSinkFingerprint(t *testing.T) {
	ds := fuzzSeedDataset()
	sum := func(d *Dataset) string {
		h := NewHashSink()
		d.EmitTo(h)
		return h.Sum()
	}
	a, b := sum(ds), sum(fuzzSeedDataset())
	if a != b {
		t.Fatalf("same dataset hashed differently: %s vs %s", a, b)
	}
	mut := fuzzSeedDataset()
	mut.RTT[0].Ms += 0.001
	if c := sum(mut); c == a {
		t.Fatal("hash did not change when a record changed")
	}
	if e := sum(&Dataset{}); e == a {
		t.Fatal("empty dataset hashed like a populated one")
	}
}

// FuzzCSVRoundTrip mutates record fields, streams the dataset to disk with
// ParallelCSVWriter, and asserts that whatever Load accepts streams back
// out byte-identically — the canonical gzip CSV form is a fixed point of
// stream-write ∘ load, exactly like the uncompressed Save ∘ Load pair.
func FuzzCSVRoundTrip(f *testing.F) {
	f.Add(42.5e6, 63.2, 12.5, "A-LTE-17", false)
	f.Add(0.0, -1.5, math.Inf(1), "cell,with\"quotes", true)
	f.Add(math.NaN(), 1e-300, -0.0, "", false)

	f.Fuzz(func(t *testing.T, bps, ms, km float64, cell string, nosvc bool) {
		ds := fuzzSeedDataset()
		ds.Thr[0].Bps = bps
		ds.RTT[1].Ms = ms
		ds.Passive[2].Km = km
		ds.Handovers[0].ToCell = cell
		ds.Passive[0].Cell = cell
		ds.Passive[1].NoSvc = nosvc

		dir1 := t.TempDir()
		w, err := NewParallelCSVWriter(dir1, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		ds.EmitTo(w)
		if err := w.Flush(); err != nil {
			t.Fatalf("streaming a valid record set failed: %v", err)
		}
		back, err := Load(dir1)
		if err != nil {
			// Rejection is fine (e.g. control characters in cell ids);
			// panics and accept-then-corrupt are not.
			return
		}
		dir2 := t.TempDir()
		w2, err := NewParallelCSVWriter(dir2, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		back.EmitTo(w2)
		if err := w2.Flush(); err != nil {
			t.Fatalf("re-streaming an accepted dataset failed: %v", err)
		}
		for _, name := range csvFiles {
			if !bytes.Equal(readFile(t, filepath.Join(dir1, name+".gz")), readFile(t, filepath.Join(dir2, name+".gz"))) {
				t.Fatalf("%s.gz: stream-write -> load -> stream-write is not byte-identical", name)
			}
		}
	})
}
