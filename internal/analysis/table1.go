package analysis

import (
	"fmt"
	"strings"

	"wheels/internal/dataset"
	"wheels/internal/geo"
	"wheels/internal/radio"
)

// Table1 is the campaign's dataset statistics — Table 1 of the paper.
// Per-operator fields are indexed by radio.Operator.
type Table1 struct {
	DistanceKm  float64
	States      int
	Cities      int
	Counties    int
	Timezones   int
	UniqueCells [radio.NumOperators]int
	Handovers   [radio.NumOperators]int
	RxGB        float64
	TxGB        float64
	RuntimeMin  [radio.NumOperators]float64
	ThrSamples  int
	RTTSamples  int
	AppRuns     int
}

// ComputeTable1 reduces the dataset to Table 1 by replaying it into a
// Table1Sink over the route the campaign drove.
func ComputeTable1(ds *dataset.Dataset, route *geo.Route) Table1 {
	var s Table1Sink
	ds.EmitTo(&s)
	return s.Table1(route)
}

// Table1Sink is the streaming reduction behind Table 1: a dataset.Sink that
// tracks the furthest route distance of any throughput, RTT or passive
// sample (how far the drive got), counts each operator's handovers,
// collects its unique cells (handover endpoints and the passive loggers'
// non-empty serving cells), sums its experiment runtime, and sums the
// tests' Rx/Tx bytes and the sample and app-run counts. It is kept apart
// from Accumulator so fleet seeds, which never read Table 1, pay no map
// insert per passive sample.
//
// Every sum runs over one table in emission order, and the test and app
// runtimes are added only at read, so a campaign's interleaved stream and a
// table-by-table replay of the same records give the same bits. The zero
// value is ready to use.
type Table1Sink struct {
	t       Table1 // the counts and the Rx/Tx sums
	endKm   float64
	cells   [radio.NumOperators]map[string]struct{}
	testMin [radio.NumOperators]float64
	appMin  [radio.NumOperators]float64
}

// Table1 returns the table for the records emitted so far. The distance is
// the furthest sample's, and the states and cities are those route has
// reached by then.
func (s *Table1Sink) Table1(route *geo.Route) Table1 {
	t := s.t
	t.DistanceKm = s.endKm
	t.States, t.Cities = route.Reached(s.endKm)
	t.Counties = int(t.DistanceKm/50) + t.Cities // ~50 km of road per county, plus one per city core
	t.Timezones = 4
	for op := range t.UniqueCells {
		t.UniqueCells[op] = len(s.cells[op])
		t.RuntimeMin[op] = s.testMin[op] + s.appMin[op]
	}
	return t
}

func (s *Table1Sink) cell(op radio.Operator, id string) {
	if s.cells[op] == nil {
		s.cells[op] = map[string]struct{}{}
	}
	s.cells[op][id] = struct{}{}
}

func (s *Table1Sink) EmitThr(r dataset.ThroughputSample) {
	s.t.ThrSamples++
	s.endKm = max(s.endKm, r.Km)
}

func (s *Table1Sink) EmitRTT(r dataset.RTTSample) {
	s.t.RTTSamples++
	s.endKm = max(s.endKm, r.Km)
}

func (s *Table1Sink) EmitHandover(h dataset.HandoverRecord) {
	s.t.Handovers[h.Op]++
	s.cell(h.Op, h.FromCell)
	s.cell(h.Op, h.ToCell)
}

func (s *Table1Sink) EmitTest(t dataset.TestSummary) {
	s.testMin[t.Op] += t.DurSec / 60
	s.t.RxGB += t.RxBytes / 1e9
	s.t.TxGB += t.TxBytes / 1e9
}

func (s *Table1Sink) EmitApp(a dataset.AppRun) {
	s.t.AppRuns++
	s.appMin[a.Op] += a.DurSec / 60
}

func (s *Table1Sink) EmitPassive(p dataset.PassiveSample) {
	s.endKm = max(s.endKm, p.Km)
	if p.Cell != "" {
		s.cell(p.Op, p.Cell)
	}
}

// Batch emits reduce record by record through the scalar methods.
func (s *Table1Sink) EmitThrAll(recs []dataset.ThroughputSample)    { each(recs, s.EmitThr) }
func (s *Table1Sink) EmitRTTAll(recs []dataset.RTTSample)           { each(recs, s.EmitRTT) }
func (s *Table1Sink) EmitHandoverAll(recs []dataset.HandoverRecord) { each(recs, s.EmitHandover) }
func (s *Table1Sink) EmitTestAll(recs []dataset.TestSummary)        { each(recs, s.EmitTest) }
func (s *Table1Sink) EmitAppAll(recs []dataset.AppRun)              { each(recs, s.EmitApp) }
func (s *Table1Sink) EmitPassiveAll(recs []dataset.PassiveSample)   { each(recs, s.EmitPassive) }
func (s *Table1Sink) Flush() error                                  { return nil }

func each[T any](recs []T, emit func(T)) {
	for _, r := range recs {
		emit(r)
	}
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
