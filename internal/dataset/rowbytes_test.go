package dataset

import (
	"bytes"
	"encoding/csv"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"wheels/internal/geo"
	"wheels/internal/radio"
	"wheels/internal/servers"
	"wheels/internal/sim"
)

// The append* functions render a record as the []string row encoding/csv
// writes. They are the reference encoding the byte codecs of rowbytes.go
// are pinned to: csvLine encodes one such row, writeOracle a whole dataset.

func f2s(v float64) string   { return strconv.FormatFloat(v, 'g', -1, 64) }
func i2s(v int) string       { return strconv.Itoa(v) }
func b2s(v bool) string      { return strconv.FormatBool(v) }
func t2s(t time.Time) string { return t.Format(timeLayout) }

func appendThr(dst []string, s ThroughputSample) []string {
	return append(dst, i2s(s.TestID), s.Op.String(), s.Dir.String(), t2s(s.TimeUTC), f2s(s.Bps),
		s.Tech.String(), f2s(s.RSRPdBm), f2s(s.SINRdB), i2s(s.MCS), f2s(s.BLER), i2s(s.CC),
		f2s(s.MPH), f2s(s.Km), s.Zone.String(), s.Road.String(), s.Server.String(),
		b2s(s.Static), i2s(s.HOs))
}

func appendRTT(dst []string, s RTTSample) []string {
	return append(dst, i2s(s.TestID), s.Op.String(), t2s(s.TimeUTC), f2s(s.Ms), s.Tech.String(),
		f2s(s.MPH), f2s(s.Km), s.Zone.String(), s.Server.String(), b2s(s.Static))
}

func appendHO(dst []string, h HandoverRecord) []string {
	return append(dst, i2s(h.TestID), h.Op.String(), t2s(h.TimeUTC), f2s(h.DurSec),
		h.FromTech.String(), h.ToTech.String(), h.FromCell, h.ToCell, h.Dir.String())
}

func appendTest(dst []string, t TestSummary) []string {
	return append(dst, i2s(t.ID), t.Op.String(), string(t.Kind), t.Dir.String(), t2s(t.StartUTC),
		f2s(t.DurSec), t.Zone.String(), t.Server.String(), b2s(t.Static), f2s(t.MeanBps),
		f2s(t.StdFracBps), f2s(t.MeanRTTms), f2s(t.StdFracRTT), f2s(t.HighSpeedFrac),
		f2s(t.Miles), i2s(t.HOCount), f2s(t.RxBytes), f2s(t.TxBytes))
}

func appendApp(dst []string, a AppRun) []string {
	return append(dst, i2s(a.ID), a.Op.String(), string(a.App), t2s(a.StartUTC), f2s(a.DurSec),
		a.Server.String(), b2s(a.Static), b2s(a.Compressed), f2s(a.HighSpeedFrac),
		i2s(a.HOCount), f2s(a.MedianE2EMs), f2s(a.OffloadFPS), f2s(a.MAP), f2s(a.QoE),
		f2s(a.RebufFrac), f2s(a.AvgBitrate), f2s(a.SendBitrate), f2s(a.NetLatencyMs),
		f2s(a.FrameDrop))
}

func appendPassive(dst []string, p PassiveSample) []string {
	return append(dst, p.Op.String(), t2s(p.TimeUTC), f2s(p.Km), p.Tech.String(), p.Cell,
		p.Zone.String(), b2s(p.NoSvc))
}

// writeOracle writes d under dir as six plain <table>.csv files, headers
// first, through encoding/csv and the append* rows — the independent
// reference the writer's decompressed bytes are checked against, and a
// plain-CSV dataset for Load.
func writeOracle(t testing.TB, dir string, d *Dataset) {
	t.Helper()
	var rows [numTables][][]string
	for _, r := range d.Thr {
		rows[tabThr] = append(rows[tabThr], appendThr(nil, r))
	}
	for _, r := range d.RTT {
		rows[tabRTT] = append(rows[tabRTT], appendRTT(nil, r))
	}
	for _, r := range d.Handovers {
		rows[tabHO] = append(rows[tabHO], appendHO(nil, r))
	}
	for _, r := range d.Tests {
		rows[tabTests] = append(rows[tabTests], appendTest(nil, r))
	}
	for _, r := range d.Apps {
		rows[tabApps] = append(rows[tabApps], appendApp(nil, r))
	}
	for _, r := range d.Passive {
		rows[tabPassive] = append(rows[tabPassive], appendPassive(nil, r))
	}
	for i, name := range tableNames {
		var buf bytes.Buffer
		w := csv.NewWriter(&buf)
		if err := w.Write(tableHeaders[i]); err != nil {
			t.Fatal(err)
		}
		if err := w.WriteAll(rows[i]); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// csvLine encodes one []string record through encoding/csv.
func csvLine(t *testing.T, rec []string) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.Write(rec); err != nil {
		t.Fatalf("csv.Write: %v", err)
	}
	w.Flush()
	return buf.Bytes()
}

// trickyStrings exercises every quoting path of encoding/csv: plain,
// empty, embedded comma/quote/newline/CR, leading space, the Postgres
// terminator, and multi-byte runes.
var trickyStrings = []string{
	"", "plain", "V-mmW-12", `has"quote`, "has,comma", "has\nnewline",
	"has\rcr", " leading-space", "\ttab-lead", `\.`, "ünïcødé", "ends ",
	`""`, "a,b\"c\nd",
}

// trickyFloats exercises every FormatFloat shape 'g' can produce.
var trickyFloats = []float64{
	0, 1, -1, 0.5, -3.25e-9, 1e21, 123456.789, math.Inf(1), math.Inf(-1),
	math.NaN(), math.SmallestNonzeroFloat64, math.MaxFloat64, -0.0,
}

// TestRowBytesMatchCSV pins the byte codecs of rowbytes.go to the
// encoding/csv output of the append* reference rows for every table, across
// adversarial strings, floats, and times. This is the invariant that lets
// every exporter skip encoding/csv without changing a single output byte
// (golden hashes included).
func TestRowBytesMatchCSV(t *testing.T) {
	rng := sim.NewRNG(7)
	// One encoder across all rows, so the time cache and float memo carry
	// state between rows exactly as a long-lived sink's encoder does.
	var enc rowEnc
	times := []time.Time{
		sim.TripStart.UTC(),
		sim.TripStart.UTC().Add(1234567891 * time.Nanosecond),
		time.Date(2021, 5, 3, 13, 7, 9, 500, time.UTC),
		time.Date(1999, 12, 31, 23, 59, 59, 999999999, time.UTC),
	}
	pickS := func(i int) string { return trickyStrings[i%len(trickyStrings)] }
	pickF := func(i int) float64 { return trickyFloats[i%len(trickyFloats)] }
	pickT := func(i int) time.Time { return times[i%len(times)] }

	for i := 0; i < 256; i++ {
		thr := ThroughputSample{
			TestID: rng.Intn(1 << 20), Op: radio.Operator(i % 3), Dir: radio.Direction(i % 2),
			TimeUTC: pickT(i), Bps: pickF(i), Tech: radio.Tech(i % 5), RSRPdBm: pickF(i + 1),
			SINRdB: pickF(i + 2), MCS: i - 128, BLER: pickF(i + 3), CC: i % 9, MPH: pickF(i + 4),
			Km: pickF(i + 5), Zone: geo.Timezone(i % 4), Road: geo.RoadClass(i % 3),
			Server: servers.Kind(i % 2), Static: i%2 == 0, HOs: i,
		}
		if got, want := enc.csvAppendThr(nil, thr), csvLine(t, appendThr(nil, thr)); !bytes.Equal(got, want) {
			t.Fatalf("thr row %d:\n got %q\nwant %q", i, got, want)
		}
		rtt := RTTSample{
			TestID: i, Op: radio.Operator(i % 3), TimeUTC: pickT(i + 1), Ms: pickF(i),
			Tech: radio.Tech(i % 5), MPH: pickF(i + 6), Km: pickF(i + 7),
			Zone: geo.Timezone(i % 4), Server: servers.Kind(i % 2), Static: i%3 == 0,
		}
		if got, want := enc.csvAppendRTT(nil, rtt), csvLine(t, appendRTT(nil, rtt)); !bytes.Equal(got, want) {
			t.Fatalf("rtt row %d:\n got %q\nwant %q", i, got, want)
		}
		ho := HandoverRecord{
			TestID: i, Op: radio.Operator(i % 3), TimeUTC: pickT(i + 2), DurSec: pickF(i),
			FromTech: radio.Tech(i % 5), ToTech: radio.Tech((i + 1) % 5),
			FromCell: pickS(i), ToCell: pickS(i + 3), Dir: radio.Direction(i % 2),
		}
		if got, want := enc.csvAppendHO(nil, ho), csvLine(t, appendHO(nil, ho)); !bytes.Equal(got, want) {
			t.Fatalf("ho row %d:\n got %q\nwant %q", i, got, want)
		}
		sum := TestSummary{
			ID: i, Op: radio.Operator(i % 3), Kind: TestKind(pickS(i + 1)), Dir: radio.Direction(i % 2),
			StartUTC: pickT(i + 3), DurSec: pickF(i + 8), Zone: geo.Timezone(i % 4),
			Server: servers.Kind(i % 2), Static: i%2 == 1, MeanBps: pickF(i + 9),
			StdFracBps: pickF(i + 10), MeanRTTms: pickF(i + 11), StdFracRTT: pickF(i + 12),
			HighSpeedFrac: pickF(i + 13), Miles: pickF(i + 14), HOCount: -i,
			RxBytes: pickF(i + 15), TxBytes: pickF(i + 16),
		}
		if got, want := enc.csvAppendTest(nil, sum), csvLine(t, appendTest(nil, sum)); !bytes.Equal(got, want) {
			t.Fatalf("test row %d:\n got %q\nwant %q", i, got, want)
		}
		app := AppRun{
			ID: i, Op: radio.Operator(i % 3), App: TestKind(pickS(i + 2)), StartUTC: pickT(i),
			DurSec: pickF(i + 17), Server: servers.Kind(i % 2), Static: i%2 == 0,
			Compressed: i%3 == 1, HighSpeedFrac: pickF(i + 18), HOCount: i,
			MedianE2EMs: pickF(i + 19), OffloadFPS: pickF(i + 20), MAP: pickF(i + 21),
			QoE: pickF(i + 22), RebufFrac: pickF(i + 23), AvgBitrate: pickF(i + 24),
			SendBitrate: pickF(i + 25), NetLatencyMs: pickF(i + 26), FrameDrop: pickF(i + 27),
		}
		if got, want := enc.csvAppendApp(nil, app), csvLine(t, appendApp(nil, app)); !bytes.Equal(got, want) {
			t.Fatalf("app row %d:\n got %q\nwant %q", i, got, want)
		}
		pas := PassiveSample{
			Op: radio.Operator(i % 3), TimeUTC: pickT(i + 4), Km: pickF(i + 28),
			Tech: radio.Tech(i % 5), Cell: pickS(i + 5), Zone: geo.Timezone(i % 4), NoSvc: i%2 == 0,
		}
		if got, want := enc.csvAppendPassive(nil, pas), csvLine(t, appendPassive(nil, pas)); !bytes.Equal(got, want) {
			t.Fatalf("passive row %d:\n got %q\nwant %q", i, got, want)
		}
	}

	// Headers go through the generic []string path.
	for i, h := range tableHeaders {
		if got, want := csvAppendRow(nil, h), csvLine(t, h); !bytes.Equal(got, want) {
			t.Fatalf("header %d:\n got %q\nwant %q", i, got, want)
		}
	}
	// The generic path also handles adversarial fields.
	if got, want := csvAppendRow(nil, trickyStrings), csvLine(t, trickyStrings); !bytes.Equal(got, want) {
		t.Fatalf("tricky row:\n got %q\nwant %q", got, want)
	}
}

// FuzzQuoteS fuzzes the single-field quoting path against encoding/csv.
func FuzzQuoteS(f *testing.F) {
	for _, s := range trickyStrings {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, field string) {
		var buf bytes.Buffer
		w := csv.NewWriter(&buf)
		if err := w.Write([]string{field}); err != nil {
			t.Skip() // fields encoding/csv itself rejects are out of scope
		}
		w.Flush()
		got := append(quoteS(nil, field), '\n')
		if !bytes.Equal(got, buf.Bytes()) {
			t.Fatalf("field %q:\n got %q\nwant %q", field, got, buf.Bytes())
		}
	})
}
