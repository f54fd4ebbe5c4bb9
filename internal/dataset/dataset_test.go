package dataset

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"wheels/internal/geo"
	"wheels/internal/radio"
	"wheels/internal/servers"
)

func sampleDataset() *Dataset {
	t0 := time.Date(2022, 8, 8, 15, 0, 0, 0, time.UTC)
	return &Dataset{
		Seed: 23,
		Thr: []ThroughputSample{
			{TestID: 1, Op: radio.Verizon, Dir: radio.Downlink, TimeUTC: t0, Bps: 42.5e6,
				Tech: radio.NRMid, RSRPdBm: -97.25, SINRdB: 12.5, MCS: 19, BLER: 0.08, CC: 2,
				MPH: 64.2, Km: 1234.5, Zone: geo.Mountain, Road: geo.RoadHighway,
				Server: servers.Cloud, Static: false, HOs: 1},
			{TestID: 2, Op: radio.TMobile, Dir: radio.Uplink, TimeUTC: t0.Add(time.Minute),
				Bps: 1.2e6, Tech: radio.LTE, RSRPdBm: -113, SINRdB: 1, MCS: 4, BLER: 0.2, CC: 1,
				MPH: 12, Km: 10, Zone: geo.Pacific, Road: geo.RoadCity,
				Server: servers.Edge, Static: true, HOs: 0},
		},
		RTT: []RTTSample{
			{TestID: 3, Op: radio.ATT, TimeUTC: t0, Ms: 81.5, Tech: radio.LTEA, MPH: 70,
				Km: 2000, Zone: geo.Central, Server: servers.Cloud},
		},
		Handovers: []HandoverRecord{
			{TestID: 1, Op: radio.Verizon, TimeUTC: t0.Add(2 * time.Second), DurSec: 0.053,
				FromTech: radio.LTEA, ToTech: radio.NRMid, FromCell: "V-LTE-A-7", ToCell: "V-5G-mid-11",
				Dir: radio.Downlink},
		},
		Tests: []TestSummary{
			{ID: 1, Op: radio.Verizon, Kind: TestBulkDL, Dir: radio.Downlink, StartUTC: t0,
				DurSec: 30, Zone: geo.Mountain, Server: servers.Cloud, MeanBps: 30e6,
				StdFracBps: 0.7, HighSpeedFrac: 0.4, Miles: 0.5, HOCount: 2, RxBytes: 1e8},
		},
		Apps: []AppRun{
			{ID: 9, Op: radio.Verizon, App: TestAR, StartUTC: t0, DurSec: 20, Server: servers.Edge,
				Compressed: true, HighSpeedFrac: 1, HOCount: 3, MedianE2EMs: 214, OffloadFPS: 4.35,
				MAP: 30.1},
		},
		Passive: []PassiveSample{
			{Op: radio.ATT, TimeUTC: t0, Km: 55, Tech: radio.LTE, Cell: "A-LTE-10", Zone: geo.Pacific},
		},
	}
}

// TestLoadRoundTrip: a dataset written through ParallelCSVWriter loads
// back to the same records.
func TestLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d := sampleDataset()
	writeGzip(t, d, dir)
	got, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	got.Seed = d.Seed // seed is not serialized; compare the records
	if !reflect.DeepEqual(d.Thr, got.Thr) {
		t.Errorf("throughput samples round-trip mismatch:\n%+v\n%+v", d.Thr, got.Thr)
	}
	if !reflect.DeepEqual(d.RTT, got.RTT) {
		t.Error("RTT samples round-trip mismatch")
	}
	if !reflect.DeepEqual(d.Handovers, got.Handovers) {
		t.Error("handover records round-trip mismatch")
	}
	if !reflect.DeepEqual(d.Tests, got.Tests) {
		t.Error("test summaries round-trip mismatch")
	}
	if !reflect.DeepEqual(d.Apps, got.Apps) {
		t.Error("app runs round-trip mismatch")
	}
	if !reflect.DeepEqual(d.Passive, got.Passive) {
		t.Error("passive samples round-trip mismatch")
	}
}

func TestLoadRejectsCorruptRows(t *testing.T) {
	dir := t.TempDir()
	writeOracle(t, dir, sampleDataset())
	path := filepath.Join(dir, fileThr)
	corrupt := []byte("test_id,op,dir,time_utc,bps,tech,rsrp_dbm,sinr_db,mcs,bler,cc,mph,km,zone,road,server,static,hos\n" +
		"x,Verizon,DL,2022-08-08T15:00:00Z,1,LTE,-90,5,3,0.1,1,10,1,Pacific,city,cloud,false,0\n")
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Error("Load accepted a row with a non-numeric test_id")
	}
}

func TestLoadRejectsUnknownEnum(t *testing.T) {
	dir := t.TempDir()
	writeOracle(t, dir, sampleDataset())
	path := filepath.Join(dir, fileRTT)
	corrupt := []byte("test_id,op,time_utc,ms,tech,mph,km,zone,server,static\n" +
		"1,Sprint,2022-08-08T15:00:00Z,50,LTE,10,1,Pacific,cloud,false\n")
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Error("Load accepted an unknown operator")
	}
}

func TestLoadMissingDir(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Error("Load of a missing directory succeeded")
	}
}

func TestHandoverKindAndVertical(t *testing.T) {
	h := HandoverRecord{FromTech: radio.NRMid, ToTech: radio.LTE}
	if h.Kind() != "5G->4G" {
		t.Errorf("Kind = %q, want 5G->4G", h.Kind())
	}
	h2 := HandoverRecord{FromTech: radio.LTE, ToTech: radio.LTE}
	if h2.Kind() != "4G->4G" {
		t.Errorf("Kind = %q, want 4G->4G", h2.Kind())
	}
}

func TestMbps(t *testing.T) {
	s := ThroughputSample{Bps: 5e6}
	if s.Mbps() != 5 {
		t.Errorf("Mbps = %v, want 5", s.Mbps())
	}
}

// writeGzip writes d through a ParallelCSVWriter.
func writeGzip(t *testing.T, d *Dataset, dir string) {
	t.Helper()
	w, err := NewParallelCSVWriter(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	d.EmitTo(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestCompressedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d := sampleDataset()
	writeGzip(t, d, dir)
	// Only .gz files should be visible (staging cleaned up).
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".gz" {
			t.Errorf("unexpected artifact %s", e.Name())
		}
	}
	// Load falls back to <table>.csv.gz, so the compressed directory reads
	// back exactly as the plain encoding/csv oracle's does.
	got, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	plain := t.TempDir()
	writeOracle(t, plain, d)
	want, err := Load(plain)
	if err != nil {
		t.Fatalf("Load(plain): %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("compressed round trip differs from the plain one")
	}
	if _, err := Load(t.TempDir()); err == nil {
		t.Error("Load of an empty dir succeeded")
	}
}
