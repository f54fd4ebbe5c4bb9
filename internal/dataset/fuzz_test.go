package dataset

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"wheels/internal/geo"
	"wheels/internal/radio"
	"wheels/internal/servers"
)

// csvFiles lists the six dataset tables in export order.
var csvFiles = []string{fileThr, fileRTT, fileHO, fileTests, fileApps, filePassive}

// fuzzSeedDataset is a small but fully-populated dataset whose export seeds
// the fuzz corpus — every table, both server kinds, negative floats, and
// cell ids with the characters the exporter actually emits.
func fuzzSeedDataset() *Dataset {
	at := time.Date(2022, 8, 8, 15, 0, 0, 500e6, time.UTC)
	d := &Dataset{Seed: 23}
	for id := 1; id <= 3; id++ {
		d.Thr = append(d.Thr, ThroughputSample{
			TestID: id, Op: radio.Verizon, Dir: radio.Downlink, TimeUTC: at,
			Bps: 42.5e6, Tech: radio.NRMid, RSRPdBm: -91.25, SINRdB: 7.5, MCS: 17,
			BLER: 0.05, CC: 2, MPH: 61.2, Km: float64(id) * 3.7, Zone: geo.Pacific,
			Road: geo.RoadHighway, Server: servers.Cloud, HOs: 1,
		})
		d.RTT = append(d.RTT, RTTSample{
			TestID: id, Op: radio.TMobile, TimeUTC: at, Ms: 63.2, Tech: radio.LTEA,
			MPH: 30, Km: 5, Zone: geo.Mountain, Server: servers.Edge,
		})
		d.Handovers = append(d.Handovers, HandoverRecord{
			TestID: id, Op: radio.ATT, TimeUTC: at, DurSec: 0.058,
			FromTech: radio.LTE, ToTech: radio.NRLow, FromCell: "A-LTE-17", ToCell: "A-5G-low-4",
			Dir: radio.Uplink,
		})
		d.Tests = append(d.Tests, TestSummary{
			ID: id, Op: radio.Verizon, Kind: TestBulkDL, StartUTC: at, DurSec: 30,
			Zone: geo.Central, Server: servers.Cloud, MeanBps: 31e6, StdFracBps: 0.4,
			HighSpeedFrac: 0.25, Miles: 0.51, HOCount: 2, RxBytes: 1.1e8,
		})
		d.Apps = append(d.Apps, AppRun{
			ID: id, Op: radio.TMobile, App: TestAR, StartUTC: at, DurSec: 45,
			Server: servers.Edge, Compressed: true, MedianE2EMs: 214, OffloadFPS: 4.35, MAP: 30.1,
		})
		d.Passive = append(d.Passive, PassiveSample{
			Op: radio.ATT, TimeUTC: at, Km: 12.5, Tech: radio.LTE, Cell: "A-LTE-3",
			Zone: geo.Eastern, NoSvc: id == 2,
		})
	}
	return d
}

// readAll returns the concatenated bytes of every <table>.csv.gz under dir.
func readAll(t *testing.T, dir string) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, name := range csvFiles {
		b, err := os.ReadFile(filepath.Join(dir, name+".gz"))
		if err != nil {
			t.Fatalf("reading %s: %v", name, err)
		}
		buf.WriteString(name)
		buf.WriteByte(0)
		buf.Write(b)
	}
	return buf.Bytes()
}

// FuzzLoadCSV mutates one plain <table>.csv of a valid dataset at a time
// and asserts two properties: Load never panics, and anything Load accepts
// round-trips export→import→export byte-identically (the writer's canonical
// form is a fixed point of ParallelCSVWriter∘Load).
func FuzzLoadCSV(f *testing.F) {
	seedDir := f.TempDir()
	writeOracle(f, seedDir, fuzzSeedDataset())
	for which, name := range csvFiles {
		b, err := os.ReadFile(filepath.Join(seedDir, name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(which, b)
	}
	f.Add(0, []byte("test_id,op\n1,Verizon\n"))
	f.Add(2, []byte("garbage"))
	f.Add(5, []byte(""))

	f.Fuzz(func(t *testing.T, which int, content []byte) {
		if which < 0 {
			which = -which
		}
		dir := t.TempDir()
		writeOracle(t, dir, fuzzSeedDataset())
		target := csvFiles[which%len(csvFiles)]
		if err := os.WriteFile(filepath.Join(dir, target), content, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := Load(dir)
		if err != nil {
			return // rejection is fine; panics are not
		}
		out1, out2 := t.TempDir(), t.TempDir()
		writeGzip(t, d, out1)
		back, err := Load(out1)
		if err != nil {
			t.Fatalf("our own export failed to import: %v", err)
		}
		writeGzip(t, back, out2)
		if !bytes.Equal(readAll(t, out1), readAll(t, out2)) {
			t.Fatal("export -> import -> export is not byte-identical")
		}
	})
}
