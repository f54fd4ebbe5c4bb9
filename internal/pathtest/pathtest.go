// Package pathtest provides shared test fixtures: transport.Path
// implementations (a constant path, an outage-injecting path, a driving
// radio-link adapter) and the dataset export-byte helper the byte-identity
// tests hash. The transport package's own in-package tests keep local
// copies (importing this package there would cycle through
// transport.PathState); every other package should use these.
package pathtest

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"wheels/internal/dataset"
	"wheels/internal/geo"
	"wheels/internal/radio"
	"wheels/internal/transport"
)

// ExportBytes saves the dataset under a temp dir and returns the
// concatenation of "<basename>\0<bytes>" for every CSV file in sorted name
// order — the byte-level identity the engine differential and the seed-23
// golden promise. Every byte-identity test must hash exactly this form, so
// the campaign goldens and the scenario guard agree on what "identical
// output" means.
func ExportBytes(t *testing.T, ds *dataset.Dataset) []byte {
	t.Helper()
	dir := t.TempDir()
	if err := ds.Save(dir); err != nil {
		t.Fatalf("saving dataset: %v", err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	if len(names) == 0 {
		t.Fatal("export produced no CSV files")
	}
	var buf bytes.Buffer
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		buf.WriteString(filepath.Base(name))
		buf.WriteByte(0)
		buf.Write(b)
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
	st := p.Link.Step(dt, dist+0.2, 60, geo.RoadHighway)
	return transport.PathState{CapBps: st.CapDL, BaseRTTms: 60}
}
