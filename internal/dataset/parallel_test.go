package dataset

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
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
func emitSynthetic(sink Sink, n int) { emitSyntheticEach(sink, n, func() {}) }

// emitSyntheticEach is emitSynthetic with after called following every
// emit.
func emitSyntheticEach(sink Sink, n int, after func()) {
	for i := 0; i < n; i++ {
		sink.EmitThr(synthThr(i))
		after()
	}
	if n == 0 {
		return
	}
	d := sampleDataset()
	for _, r := range d.RTT {
		sink.EmitRTT(r)
		after()
	}
	for _, r := range d.Handovers {
		sink.EmitHandover(r)
		after()
	}
	for _, r := range d.Tests {
		sink.EmitTest(r)
		after()
	}
	for _, r := range d.Apps {
		sink.EmitApp(r)
		after()
	}
	for _, r := range d.Passive {
		sink.EmitPassive(r)
		after()
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

// writeParallel writes the same rows as emitSynthetic through a
// ParallelCSVWriter, checks that the writer leaves no goroutine behind, and
// returns the flushed writer.
func writeParallel(t *testing.T, dir string, n, workers, chunkRows int) *ParallelCSVWriter {
	t.Helper()
	before := runtime.NumGoroutine()
	w, err := NewParallelCSVWriter(dir, workers, chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	emitSynthetic(w, n)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, before)
	// Emits after Flush are dropped: they must neither panic nor reach the
	// files (or the digest) the callers compare.
	emitSynthetic(w, 1)
	return w
}

// TestParallelCSVWriterMatchesSerial: for row counts straddling every chunk
// boundary case — empty table, single row, one row short of a chunk, an
// exact chunk, one over, several chunks — the parallel writer's files
// decompress to exactly the plain-CSV oracle's content, and Load
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
			got, err := Load(par)
			if err != nil {
				t.Fatalf("Load(parallel): %v", err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Error("parallel dataset loads differently from serial")
			}
		})
	}
}

// waitGoroutines fails the test unless the goroutine count falls back to
// before: a fleet opens one writer per dumped seed, so a goroutine a writer
// leaves behind after Flush leaks with every seed. A goroutine that has
// signalled its exit is counted until it returns, so the count is polled
// for a moment rather than read once.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running after Flush, %d before the writer was opened",
				runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// gzipMembers is the framing oracle for one table: the plain CSV cut into
// members of chunkRows rows, the header riding in the first, each member
// gzipped in one Write at the writer's gzipLevel, and the members
// concatenated.
// A table without rows is one header-only member; a table whose rows fill
// its last member exactly ends there, with no empty member after it.
func gzipMembers(t *testing.T, plain []byte, chunkRows int) []byte {
	t.Helper()
	lines := bytes.SplitAfter(plain, []byte("\n"))
	lines = lines[:len(lines)-1] // SplitAfter's empty tail after the final newline
	var out bytes.Buffer
	member := func(b []byte) {
		zw, err := gzip.NewWriterLevel(&out, gzipLevel)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := zw.Write(b); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	cut := append([]byte(nil), lines[0]...)
	for i, row := range lines[1:] {
		cut = append(cut, row...)
		if (i+1)%chunkRows == 0 {
			member(cut)
			cut = cut[:0]
		}
	}
	if len(cut) > 0 {
		member(cut)
	}
	return out.Bytes()
}

// TestParallelCSVWriterFraming pins the exact .gz bytes, not only their
// decompressed content: each file must equal gzipMembers of the plain-CSV
// oracle, whatever the worker count. The row counts cover members that span
// several pieces, a Flush right after a member ends exactly (2 members), a
// partial last member, and empty tables (rows=0).
func TestParallelCSVWriterFraming(t *testing.T) {
	const chunk = 2000
	for _, n := range []int{0, 2 * chunk, 2*chunk + 7} {
		serial := t.TempDir()
		writeSerial(t, serial, n)
		if thr := readFile(t, filepath.Join(serial, fileThr)); n > 0 && len(thr)/(n/chunk) < 2*chunkBytes {
			t.Fatalf("a %d-row member is %d bytes, under two %d-byte pieces", chunk, len(thr)/(n/chunk), chunkBytes)
		}
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("rows=%d/workers=%d", n, workers), func(t *testing.T) {
				par := t.TempDir()
				writeParallel(t, par, n, workers, chunk)
				for _, name := range tableNames {
					want := gzipMembers(t, readFile(t, filepath.Join(serial, name)), chunk)
					if got := readFile(t, filepath.Join(par, name+".gz")); !bytes.Equal(got, want) {
						t.Errorf("%s: %d bytes differ from the %d-byte member-by-member gzip", name, len(got), len(want))
					}
				}
			})
		}
	}
}

// TestParallelCSVWriterSumMatchesHashSink: the digest the writer takes of
// the pieces it compresses is HashSink's digest of the same records, for
// empty tables, for many small members and for members spanning several
// pieces, at 1 and 4 workers.
func TestParallelCSVWriterSumMatchesHashSink(t *testing.T) {
	for _, tc := range []struct{ n, chunk int }{{0, 4}, {1, 4}, {3*4 + 2, 4}, {4000, 2000}, {4000, 0}} {
		h := NewHashSink()
		emitSynthetic(h, tc.n)
		want := h.Sum()
		for _, workers := range []int{1, 4} {
			w := writeParallel(t, t.TempDir(), tc.n, workers, tc.chunk)
			if got := w.Sum(); got != want {
				t.Errorf("rows=%d chunk=%d workers=%d: Sum = %s, HashSink.Sum = %s", tc.n, tc.chunk, workers, got, want)
			}
		}
	}
}

// TestParallelCSVWriterBoundsRawRows: with one worker and 4-row members,
// every piece is a member of its own and the emitter outruns deflate, so
// submit must wait at the bound, one member's rows per worker: after every
// emit the rows queued and not yet deflated are within it, none are left
// after Flush, the output still equals the member-by-member oracle, and no
// goroutine outlives the writer.
func TestParallelCSVWriterBoundsRawRows(t *testing.T) {
	const n, chunk = 4000, 4
	serial, par := t.TempDir(), t.TempDir()
	writeSerial(t, serial, n)
	before := runtime.NumGoroutine()
	w, err := NewParallelCSVWriter(par, 1, chunk)
	if err != nil {
		t.Fatal(err)
	}
	if w.rawCap != chunk {
		t.Fatalf("one worker's bound = %d rows, want one %d-row member", w.rawCap, chunk)
	}
	seen := 0 // the most queued rows any check saw
	emitSyntheticEach(w, n, func() {
		w.mu.Lock()
		raw := w.raw
		w.mu.Unlock()
		if raw > w.rawCap {
			t.Fatalf("%d rows queued for deflate, bound %d", raw, w.rawCap)
		}
		seen = max(seen, raw)
	})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, before)
	if seen == 0 {
		t.Error("no check saw a queued row; the bound was not exercised")
	}
	if w.raw != 0 {
		t.Errorf("%d rows still counted as queued after Flush", w.raw)
	}
	for _, name := range tableNames {
		want := gzipMembers(t, readFile(t, filepath.Join(serial, name)), chunk)
		if got := readFile(t, filepath.Join(par, name+".gz")); !bytes.Equal(got, want) {
			t.Errorf("%s: %d bytes differ from the %d-byte member-by-member gzip", name, len(got), len(want))
		}
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
// leaving a silently truncated dataset behind, and must still stop every
// goroutine the writer started. Save's plain-file writer must do the same.
func TestParallelCSVWriterDiskFull(t *testing.T) {
	dir := fullTableDir(t, ".gz")
	before := runtime.NumGoroutine()
	w, err := NewParallelCSVWriter(dir, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	emitSynthetic(w, 10)
	if err := w.Flush(); err == nil {
		t.Fatal("Flush returned nil after writes to a full device")
	}
	waitGoroutines(t, before)
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
