package dataset

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"wheels/internal/geo"
	"wheels/internal/radio"
	"wheels/internal/servers"
)

// synthThr returns a deterministic throughput sample varying with i, so
// chunk contents differ row to row and any reordering shows up.
func synthThr(i int) ThroughputSample {
	ops := radio.Operators()
	return ThroughputSample{
		TestID: i, Op: ops[i%len(ops)], Dir: radio.Direction(i % 2),
		TimeUTC: time.Date(2022, 8, 8, 15, 0, 0, 0, time.UTC).Add(time.Duration(i) * 500 * time.Millisecond),
		Bps:     float64(i) * 1.5e6, Tech: radio.LTE, RSRPdBm: -90 - float64(i%20),
		SINRdB: float64(i % 25), MCS: i % 28, BLER: 0.01 * float64(i%10), CC: 1 + i%4,
		MPH: float64(i % 80), Km: float64(i) * 0.01, Zone: geo.Pacific,
		Road: geo.RoadHighway, Server: servers.Cloud, Static: i%7 == 0, HOs: i % 3,
	}
}

// emitSynthetic streams n throughput rows plus one record into each other
// table (so all six files carry content) into sink.
func emitSynthetic(sink Sink, n int) {
	for i := 0; i < n; i++ {
		sink.EmitThr(synthThr(i))
	}
	if n == 0 {
		return
	}
	d := sampleDataset()
	for _, r := range d.RTT {
		sink.EmitRTT(r)
	}
	for _, r := range d.Handovers {
		sink.EmitHandover(r)
	}
	for _, r := range d.Tests {
		sink.EmitTest(r)
	}
	for _, r := range d.Apps {
		sink.EmitApp(r)
	}
	for _, r := range d.Passive {
		sink.EmitPassive(r)
	}
}

// gunzipFile decompresses one table file; gzip.Reader consumes all members
// of a multi-member stream, which is exactly what the parallel writer
// produces.
func gunzipFile(t *testing.T, path string) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	defer zr.Close()
	b, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return b
}

// writeSerial writes the same rows as emitSynthetic as the plain-CSV
// encoding/csv oracle: the serial reference the parallel writer's
// decompressed output must equal.
func writeSerial(t *testing.T, dir string, n int) {
	t.Helper()
	col := NewCollector(0)
	emitSynthetic(col, n)
	writeOracle(t, dir, col.Dataset())
}

func writeParallel(t *testing.T, dir string, n, workers, chunkRows int) {
	t.Helper()
	w, err := NewParallelCSVWriter(dir, workers, chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	emitSynthetic(w, n)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Emits after Flush are dropped: they must neither panic nor reach the
	// files the callers compare.
	emitSynthetic(w, 1)
}

// TestParallelCSVWriterMatchesSerial: for row counts straddling every chunk
// boundary case — empty table, single row, one row short of a chunk, an
// exact chunk, one over, several chunks — the parallel writer's files
// decompress to exactly the plain-CSV oracle's content, and LoadCompressed
// reads them back into what Load reads from the oracle.
func TestParallelCSVWriterMatchesSerial(t *testing.T) {
	const chunk = 4
	for _, n := range []int{0, 1, chunk - 1, chunk, chunk + 1, 3 * chunk, 3*chunk + 2} {
		t.Run(fmt.Sprintf("rows=%d", n), func(t *testing.T) {
			serial, par := t.TempDir(), t.TempDir()
			writeSerial(t, serial, n)
			writeParallel(t, par, n, 3, chunk)
			for _, name := range tableNames {
				want := readFile(t, filepath.Join(serial, name))
				got := gunzipFile(t, filepath.Join(par, name+".gz"))
				if !bytes.Equal(got, want) {
					t.Errorf("%s: parallel content differs from serial", name)
				}
			}
			want, err := Load(serial)
			if err != nil {
				t.Fatal(err)
			}
			got, err := LoadCompressed(par)
			if err != nil {
				t.Fatalf("LoadCompressed(parallel): %v", err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Error("parallel dataset loads differently from serial")
			}
		})
	}
}

// TestParallelCSVWriterDeterministicAcrossWorkers: the compressed bytes
// depend only on the chunk size, never on the worker count.
func TestParallelCSVWriterDeterministicAcrossWorkers(t *testing.T) {
	const n, chunk = 50, 8
	var want map[string][]byte
	for _, workers := range []int{1, 2, 8} {
		dir := t.TempDir()
		writeParallel(t, dir, n, workers, chunk)
		got := map[string][]byte{}
		for _, name := range tableNames {
			b, err := os.ReadFile(filepath.Join(dir, name+".gz"))
			if err != nil {
				t.Fatal(err)
			}
			got[name] = b
		}
		if want == nil {
			want = got
			continue
		}
		for name := range want {
			if !bytes.Equal(want[name], got[name]) {
				t.Errorf("workers=%d: %s bytes differ from workers=1", workers, name)
			}
		}
	}
}

// FuzzParallelChunking drives random (row count, chunk size) pairs through
// the parallel writer and verifies the gzip.Reader round trip always
// reproduces the plain-CSV oracle's content — the multi-member framing can
// never depend on where chunk boundaries land.
func FuzzParallelChunking(f *testing.F) {
	f.Add(uint8(0), uint8(1))
	f.Add(uint8(1), uint8(1))
	f.Add(uint8(7), uint8(8))
	f.Add(uint8(8), uint8(8))
	f.Add(uint8(9), uint8(8))
	f.Add(uint8(64), uint8(3))
	f.Fuzz(func(t *testing.T, nRows, chunkRows uint8) {
		n, chunk := int(nRows), int(chunkRows)
		if chunk == 0 {
			chunk = DefaultChunkRows // the <=0 default path
		}
		serial, par := t.TempDir(), t.TempDir()
		writeSerial(t, serial, n)
		writeParallel(t, par, n, 2, chunk)
		for _, name := range tableNames {
			want := readFile(t, filepath.Join(serial, name))
			got := gunzipFile(t, filepath.Join(par, name+".gz"))
			if !bytes.Equal(got, want) {
				t.Fatalf("rows=%d chunk=%d %s: content mismatch", n, chunk, name)
			}
		}
	})
}

// TestParallelCSVWriterDiskFull points one table file at /dev/full, where
// every write fails with ENOSPC: Flush must report the error instead of
// leaving a silently truncated dataset behind. Save's plain-file writer
// must do the same.
func TestParallelCSVWriterDiskFull(t *testing.T) {
	w, err := NewParallelCSVWriter(fullTableDir(t, ".gz"), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	emitSynthetic(w, 10)
	if err := w.Flush(); err == nil {
		t.Fatal("Flush returned nil after writes to a full device")
	}
	if err := sampleDataset().Save(fullTableDir(t, "")); err == nil {
		t.Fatal("Save returned nil after writes to a full device")
	}
}

// fullTableDir returns a temp dir whose throughput table path (with suffix)
// is a symlink to /dev/full, skipping the test where the device does not
// exist.
func fullTableDir(t *testing.T, suffix string) string {
	t.Helper()
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full not available")
	}
	dir := t.TempDir()
	if err := os.Symlink("/dev/full", filepath.Join(dir, fileThr+suffix)); err != nil {
		t.Fatal(err)
	}
	return dir
}
