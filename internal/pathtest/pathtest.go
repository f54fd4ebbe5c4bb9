// Package pathtest provides shared test fixtures: transport.Path
// implementations (a constant path, an outage-injecting path, a driving
// radio-link adapter) and the dataset export-byte helper the byte-identity
// tests hash. The transport package's own in-package tests keep local
// copies (importing this package there would cycle through
// transport.PathState); every other package should use these.
package pathtest

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"wheels/internal/dataset"
	"wheels/internal/geo"
	"wheels/internal/radio"
	"wheels/internal/transport"
)

// ExportBytes writes the dataset through dataset.ParallelCSVWriter under a
// temp dir and returns the concatenation of "<basename>\0<bytes>" for every
// table, the bytes gunzipped and named by its <table>.csv name, in sorted
// name order — the byte-level identity the engine differential and the
// seed-23 golden promise. Every byte-identity test must hash exactly this
// form, so the campaign goldens and the scenario guard agree on what
// "identical output" means.
func ExportBytes(t *testing.T, ds *dataset.Dataset) []byte {
	t.Helper()
	dir := t.TempDir()
	w, err := dataset.NewParallelCSVWriter(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ds.EmitTo(w)
	if err := w.Flush(); err != nil {
		t.Fatalf("writing dataset: %v", err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.csv.gz"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	if len(names) == 0 {
		t.Fatal("export produced no CSV files")
	}
	var buf bytes.Buffer
	for _, name := range names {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		zr, err := gzip.NewReader(f)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		buf.WriteString(strings.TrimSuffix(filepath.Base(name), ".gz"))
		buf.WriteByte(0)
		_, err = io.Copy(&buf, zr)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	return buf.Bytes()
}

// Const is a fixed-capacity, fixed-RTT path.
type Const struct {
	Cap float64
	RTT float64
}

// Step returns the constant path state.
func (p Const) Step(float64) transport.PathState {
	return transport.PathState{CapBps: p.Cap, BaseRTTms: p.RTT}
}

// Outage injects an outage window [Start, End) into a constant path.
type Outage struct {
	Const
	Start, End float64

	t float64
}

// Step returns the constant state, marked as an outage inside the window.
func (p *Outage) Step(dt float64) transport.PathState {
	st := p.Const.Step(dt)
	if p.t >= p.Start && p.t < p.End {
		st.Outage = true
	}
	p.t += dt
	return st
}

// DriveLink adapts a driving radio link into a transport.Path: the vehicle
// moves at 60 mph and the serving distance sweeps a sawtooth over a 3.2 km
// cell spacing, so the link sees the full near-to-edge RSRP range.
type DriveLink struct {
	Link *radio.Link

	km float64
}

// Step advances the drive by dt seconds and returns the downlink path state.
func (p *DriveLink) Step(dt float64) transport.PathState {
	p.km += 60 * geo.KmPerMile / 3600 * dt
	dist := p.km - float64(int(p.km/3.2))*3.2 - 1.6
	if dist < 0 {
		dist = -dist
	}
	var st radio.LinkState
	p.Link.StepInto(&st, dt, dist+0.2, 60, geo.RoadHighway, radio.NeedAll)
	return transport.PathState{CapBps: st.CapDL, BaseRTTms: 60}
}
