package dataset

import (
	"bytes"
	"compress/gzip"
	"io"
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

// TestCSVWriterMatchesSaveCompressed: SaveCompressed streams through the
// CSVWriter exporter, whose rows must decompress to exactly the bytes the
// independent encoding/csv path of Save writes — same headers, same row
// encoding.
func TestCSVWriterMatchesSaveCompressed(t *testing.T) {
	ds := fuzzSeedDataset()
	plainDir, gzDir := t.TempDir(), t.TempDir()
	if err := ds.Save(plainDir); err != nil {
		t.Fatal(err)
	}
	if err := ds.SaveCompressed(gzDir); err != nil {
		t.Fatal(err)
	}
	for _, name := range csvFiles {
		plain, err := os.ReadFile(filepath.Join(plainDir, name))
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(filepath.Join(gzDir, name+".gz"))
		if err != nil {
			t.Fatal(err)
		}
		zr, err := gzip.NewReader(f)
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := io.ReadAll(zr)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(plain, streamed) {
			t.Errorf("%s: gunzipped SaveCompressed bytes differ from Save's", name)
		}
	}
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
// CSVWriter, and asserts that whatever LoadCompressed accepts streams back
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
		w, err := NewCSVWriter(dir1)
		if err != nil {
			t.Fatal(err)
		}
		ds.EmitTo(w)
		if err := w.Flush(); err != nil {
			t.Fatalf("streaming a valid record set failed: %v", err)
		}
		back, err := LoadCompressed(dir1)
		if err != nil {
			// Rejection is fine (e.g. control characters in cell ids);
			// panics and accept-then-corrupt are not.
			return
		}
		dir2 := t.TempDir()
		w2, err := NewCSVWriter(dir2)
		if err != nil {
			t.Fatal(err)
		}
		back.EmitTo(w2)
		if err := w2.Flush(); err != nil {
			t.Fatalf("re-streaming an accepted dataset failed: %v", err)
		}
		for _, name := range csvFiles {
			b1, err := os.ReadFile(filepath.Join(dir1, name+".gz"))
			if err != nil {
				t.Fatal(err)
			}
			b2, err := os.ReadFile(filepath.Join(dir2, name+".gz"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b1, b2) {
				t.Fatalf("%s.gz: stream-write -> load -> stream-write is not byte-identical", name)
			}
		}
	})
}
