package dataset

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"wheels/internal/sim"
)

// rowEnc's caches are bit-exact replays of time.AppendFormat and
// strconv.AppendFloat output. These tests pin that equivalence the same way
// quotef_test.go pins the exact-half fast path: exhaustively over the
// campaign's own timestamp cadence, and by fuzz over adversarial sequences
// that thrash the caches (minute boundaries, zone flips, bit-pattern
// collisions).

// tickZones are the zone shapes campaign timestamps can carry plus
// adversarial ones: UTC, fixed negative/positive offsets, and a sub-minute
// offset that must fail cache validation and fall back every call.
var tickZones = []*time.Location{
	time.UTC,
	time.FixedZone("EST", -5*3600),
	time.FixedZone("IST", 5*3600+1800),
	time.FixedZone("LMT", -4*3600-56*60-2), // sub-minute offset: cache must reject
}

func TestQuoteTIncrementalTicks(t *testing.T) {
	// The campaign clock: trip start, advancing by the 0.5 s tick across
	// many minute boundaries — the exact sequence the hot sinks format.
	var enc rowEnc
	tm := sim.TripStart.UTC()
	for i := 0; i < 4000; i++ {
		got := enc.quoteT(nil, tm)
		want := tm.AppendFormat(nil, timeLayout)
		if !bytes.Equal(got, want) {
			t.Fatalf("tick %d (%v): got %q want %q", i, tm, got, want)
		}
		tm = tm.Add(500 * time.Millisecond)
	}
}

func TestQuoteTIncrementalZones(t *testing.T) {
	var enc rowEnc
	base := time.Date(2024, 2, 29, 23, 58, 57, 0, time.UTC)
	for _, loc := range tickZones {
		for i := 0; i < 300; i++ {
			tm := base.In(loc).Add(time.Duration(i) * 500 * time.Millisecond)
			got := enc.quoteT(nil, tm)
			want := tm.AppendFormat(nil, timeLayout)
			if !bytes.Equal(got, want) {
				t.Fatalf("zone %v tick %d (%v): got %q want %q", loc, i, tm, got, want)
			}
		}
	}
}

// TestQuoteTIncrementalExtremes covers renderings the cache must refuse:
// pre-1970 instants (negative unix seconds), 5-digit years, year 1.
func TestQuoteTIncrementalExtremes(t *testing.T) {
	var enc rowEnc
	for _, tm := range []time.Time{
		time.Date(1969, 12, 31, 23, 59, 59, 123, time.UTC),
		time.Date(1969, 12, 31, 23, 59, 59, 500000000, time.UTC),
		time.Date(12024, 1, 1, 0, 0, 30, 0, time.UTC),
		time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(1902, 6, 1, 4, 5, 6, 700, time.FixedZone("X", -11*3600)),
	} {
		for i := 0; i < 3; i++ { // repeat: a wrongly-primed cache would hit
			got := enc.quoteT(nil, tm)
			want := tm.AppendFormat(nil, timeLayout)
			if !bytes.Equal(got, want) {
				t.Fatalf("%v: got %q want %q", tm, got, want)
			}
			tm = tm.Add(500 * time.Millisecond)
		}
	}
}

// FuzzQuoteTIncremental drives one shared encoder over a derived sequence of
// instants — same-minute steps, random jumps, zone flips — and asserts every
// rendering matches time.AppendFormat. The sequence matters: a stale or
// wrongly-primed cache only shows up on the calls after the one that primed
// it.
func FuzzQuoteTIncremental(f *testing.F) {
	f.Add(int64(0), int64(500_000_000), uint8(0), uint8(16))
	f.Add(sim.TripStart.Unix(), int64(250_000_000), uint8(1), uint8(64))
	f.Add(int64(-12345), int64(999_999_999), uint8(3), uint8(32))
	f.Add(int64(253402300799), int64(1), uint8(2), uint8(8)) // year 9999 edge
	f.Fuzz(func(t *testing.T, startSec, stepNs int64, zone, steps uint8) {
		loc := tickZones[int(zone)%len(tickZones)]
		if stepNs < 0 {
			stepNs = -stepNs
		}
		stepNs %= 3_600_000_000_000 // up to an hour per step
		var enc rowEnc
		tm := time.Unix(startSec%4_000_000_000, stepNs%1_000_000_000).In(loc)
		for i := 0; i < int(steps%96)+2; i++ {
			got := enc.quoteT(nil, tm)
			want := tm.AppendFormat(nil, timeLayout)
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d (%v): got %q want %q", i, tm, got, want)
			}
			// Alternate small in-minute steps with the raw jump so both the
			// cache-hit and re-prime paths run inside one sequence.
			if i%3 == 2 {
				tm = tm.Add(time.Duration(stepNs))
			} else {
				tm = tm.Add(500 * time.Millisecond)
			}
		}
	})
}

func TestRowEncQuoteFMatchesAppendFloat(t *testing.T) {
	var enc rowEnc
	vals := append([]float64{}, trickyFloats...)
	vals = append(vals, -187.25e-3, 22.75, 1.0/3.0, math.Pi, -math.Pi, 2e6, 1e6-0.5)
	// Repeat the whole set many times: later iterations hit the memo, and
	// every hit must replay the exact AppendFloat bytes.
	for iter := 0; iter < 8; iter++ {
		for _, v := range vals {
			got := enc.quoteF(nil, v)
			want := quoteF(nil, v)
			if !bytes.Equal(got, want) {
				t.Fatalf("iter %d quoteF(%v): got %q want %q", iter, v, got, want)
			}
		}
	}
}

// FuzzRowEncQuoteF feeds raw bit patterns (NaN payloads, denormals,
// negative zero included) through the memoized encoder twice — miss then
// hit — against the reference codec.
func FuzzRowEncQuoteF(f *testing.F) {
	f.Add(uint64(0), uint64(1))
	f.Add(math.Float64bits(math.Pi), math.Float64bits(-math.Pi))
	f.Add(uint64(0x7ff8000000000001), uint64(0x8000000000000000)) // NaN payload, -0
	f.Add(math.Float64bits(22.5), math.Float64bits(1.0/3.0))
	f.Fuzz(func(t *testing.T, b1, b2 uint64) {
		var enc rowEnc
		for i := 0; i < 2; i++ {
			for _, v := range []float64{math.Float64frombits(b1), math.Float64frombits(b2)} {
				got := enc.quoteF(nil, v)
				want := quoteF(nil, v)
				if !bytes.Equal(got, want) {
					t.Fatalf("pass %d quoteF(bits %x): got %q want %q", i, math.Float64bits(v), got, want)
				}
			}
		}
	})
}

// testBatchDataset builds a dataset whose records exercise quoting, the
// float rails, repeated and advancing timestamps — enough rows that the
// HashSink chunk fold triggers on the batch path.
func testBatchDataset() *Dataset {
	d := &Dataset{Seed: 99}
	tm := sim.TripStart.UTC()
	for i := 0; i < 5000; i++ {
		f := trickyFloats[i%len(trickyFloats)]
		s := trickyStrings[i%len(trickyStrings)]
		d.Thr = append(d.Thr, ThroughputSample{
			TestID: i, TimeUTC: tm, Bps: float64(i) * 1.75e6, RSRPdBm: -91.5 + f,
			SINRdB: 12.25, MCS: i % 28, BLER: 0.1, MPH: 65.3, Km: float64(i) / 3,
		})
		d.RTT = append(d.RTT, RTTSample{TestID: i, TimeUTC: tm, Ms: 41.7 + f})
		d.Handovers = append(d.Handovers, HandoverRecord{TestID: i, TimeUTC: tm, DurSec: 0.11, FromCell: s, ToCell: s})
		tm = tm.Add(500 * time.Millisecond)
	}
	d.Tests = append(d.Tests, TestSummary{ID: 1, StartUTC: tm, DurSec: 30, MeanBps: 1.234e8})
	d.Apps = append(d.Apps, AppRun{ID: 2, StartUTC: tm, DurSec: 180, QoE: 3.7})
	d.Passive = append(d.Passive, PassiveSample{TimeUTC: tm, Km: 17.5, Cell: "V-mmW-9"})
	return d
}

// emitScalar replays d record by record through the Sink interface — the
// pre-batch path the BatchSink implementations must reproduce exactly.
func emitScalar(d *Dataset, sink Sink) {
	for _, r := range d.Thr {
		sink.EmitThr(r)
	}
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

// TestHashSinkBatchIdentical pins the batch emit path of HashSink (and the
// chunked fold) to the per-record path: same records, same digest.
func TestHashSinkBatchIdentical(t *testing.T) {
	d := testBatchDataset()
	scalar, batched := NewHashSink(), NewHashSink()
	emitScalar(d, scalar)
	d.EmitTo(batched)
	if a, b := scalar.Sum(), batched.Sum(); a != b {
		t.Fatalf("batch emit changed the digest: scalar %s batch %s", a, b)
	}
}

// TestCSVWriterBatchIdentical pins the flat-Write batch path of CSVWriter to
// per-record emission at the .gz byte level: DEFLATE must not care about
// Write boundaries.
func TestCSVWriterBatchIdentical(t *testing.T) {
	d := testBatchDataset()
	dirA, dirB := t.TempDir(), t.TempDir()
	wa, err := NewCSVWriter(dirA)
	if err != nil {
		t.Fatal(err)
	}
	emitScalar(d, wa)
	if err := wa.Flush(); err != nil {
		t.Fatal(err)
	}
	wb, err := NewCSVWriter(dirB)
	if err != nil {
		t.Fatal(err)
	}
	d.EmitTo(wb)
	if err := wb.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, name := range tableNames {
		a, err := os.ReadFile(filepath.Join(dirA, name+".gz"))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirB, name+".gz"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s.gz differs between per-record and batch emission", name)
		}
	}
}

// TestParallelCSVWriterBatchIdentical pins the batch path of the chunked
// parallel writer: chunk boundaries are row-counted, so the member bytes
// must be identical too.
func TestParallelCSVWriterBatchIdentical(t *testing.T) {
	d := testBatchDataset()
	dirA, dirB := t.TempDir(), t.TempDir()
	wa, err := NewParallelCSVWriter(dirA, 2, 256)
	if err != nil {
		t.Fatal(err)
	}
	emitScalar(d, wa)
	if err := wa.Flush(); err != nil {
		t.Fatal(err)
	}
	wb, err := NewParallelCSVWriter(dirB, 3, 256)
	if err != nil {
		t.Fatal(err)
	}
	d.EmitTo(wb)
	if err := wb.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, name := range tableNames {
		a, err := os.ReadFile(filepath.Join(dirA, name+".gz"))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirB, name+".gz"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s.gz differs between per-record and batch emission", name)
		}
	}
}

// recordOnly exposes only the Sink methods of what it wraps, so the
// EmitXxxAll helpers must take their per-record fallback for it.
type recordOnly struct{ Sink }

// TestTeeBatchFallback checks the helper dispatch: a Tee over one batch-aware
// and one scalar-only sink must deliver every record to both.
func TestTeeBatchFallback(t *testing.T) {
	d := testBatchDataset()
	col := NewCollector(d.Seed)
	inner := NewCollector(d.Seed)
	var ro Sink = recordOnly{inner}
	if _, batch := ro.(BatchSink); batch {
		t.Fatal("recordOnly must not implement BatchSink")
	}
	d.EmitTo(Tee(col, ro))
	if got, want := len(col.D.Thr), len(d.Thr); got != want {
		t.Fatalf("collector got %d thr rows, want %d", got, want)
	}
	if got, want := len(inner.D.Thr), len(d.Thr); got != want {
		t.Fatalf("per-record sink got %d thr rows, want %d", got, want)
	}
}
