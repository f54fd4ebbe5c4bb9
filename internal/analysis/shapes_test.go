package analysis

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"wheels/internal/dataset"
	"wheels/internal/geo"
	"wheels/internal/radio"
)

// CheckShapes evaluates every shape invariant against a materialized
// dataset by replaying it through an Accumulator, the streaming path the
// fleet scores seeds with. A dataset with no samples for a check fails that
// check; it never panics.
func CheckShapes(ds *dataset.Dataset) []ShapeResult {
	acc := NewAccumulator(ds.Seed)
	ds.EmitTo(acc)
	_, shapes := acc.Summarize()
	return shapes
}

// synthShapeDataset builds a tiny dataset that satisfies every shape
// invariant by construction: static DL ≫ driving DL > driving UL, HOs/mile
// in band, T-Mobile far ahead on 5G with Verizon and AT&T together.
func synthShapeDataset() *dataset.Dataset {
	ds := &dataset.Dataset{Seed: 1}
	add := func(op radio.Operator, dir radio.Direction, static bool, tech radio.Tech, mbps float64, n int) {
		for i := 0; i < n; i++ {
			ds.Thr = append(ds.Thr, dataset.ThroughputSample{
				TestID: 1, Op: op, Dir: dir, Static: static, Tech: tech, Bps: mbps * 1e6,
			})
		}
	}
	for _, op := range radio.Operators() {
		add(op, radio.Downlink, true, radio.LTEA, 500, 10) // static DL
		add(op, radio.Uplink, false, radio.LTE, 6, 10)     // driving UL
		// Driving DL: 5G share 60% for T-Mobile, 20% for Verizon/AT&T.
		five := 2
		if op == radio.TMobile {
			five = 6
		}
		add(op, radio.Downlink, false, radio.NRMid, 20, five)
		add(op, radio.Downlink, false, radio.LTE, 15, 10-five)
		// Two driving tests at 2 handovers per mile.
		ds.Tests = append(ds.Tests,
			dataset.TestSummary{ID: 1, Op: op, Kind: dataset.TestBulkDL, Miles: 1, HOCount: 2},
			dataset.TestSummary{ID: 2, Op: op, Kind: dataset.TestBulkUL, Miles: 2, HOCount: 4},
		)
	}
	return ds
}

func TestCheckShapesPassesOnConformingData(t *testing.T) {
	res := CheckShapes(synthShapeDataset())
	checks := ShapeChecks()
	if len(res) != len(checks) {
		t.Fatalf("CheckShapes returned %d results for %d checks", len(res), len(checks))
	}
	for i, r := range res {
		if r.Name != checks[i].Name {
			t.Errorf("result %d named %q, ShapeChecks says %q", i, r.Name, checks[i].Name)
		}
		if !r.Pass {
			t.Errorf("%s failed on conforming data: measured %v", r.Name, r.Measured)
		}
	}
}

func TestCheckShapesFlagsViolations(t *testing.T) {
	fail := func(t *testing.T, res []ShapeResult, name string) {
		t.Helper()
		for _, r := range res {
			if r.Name == name {
				if r.Pass {
					t.Errorf("%s passed on violating data: measured %v", name, r.Measured)
				}
				return
			}
		}
		t.Errorf("check %s missing from results", name)
	}

	// Driving DL as fast as static: the static-dwarfs invariant must fail.
	ds := synthShapeDataset()
	for i := range ds.Thr {
		if !ds.Thr[i].Static && ds.Thr[i].Dir == radio.Downlink {
			ds.Thr[i].Bps = 400e6
		}
	}
	fail(t, CheckShapes(ds), "static-dwarfs-driving/V")

	// Handover storm: 20 HOs/mile is outside the [1, 4] band.
	ds = synthShapeDataset()
	for i := range ds.Tests {
		ds.Tests[i].HOCount = 20 * int(ds.Tests[i].Miles)
	}
	fail(t, CheckShapes(ds), "hos-per-mile-band/T")

	// T-Mobile demoted to the others' 5G share: the lead invariant fails.
	ds = synthShapeDataset()
	for i := range ds.Thr {
		if s := ds.Thr[i]; s.Op == radio.TMobile && !s.Static && s.Tech == radio.NRMid {
			ds.Thr[i].Tech = radio.LTE
		}
	}
	fail(t, CheckShapes(ds), "tmobile-5g-leads")
}

// TestCheckShapesEmptyDataset is the guard for a seed whose campaign yields
// zero tests of some kind: no panics, no NaNs, every check fails cleanly.
func TestCheckShapesEmptyDataset(t *testing.T) {
	for _, ds := range []*dataset.Dataset{{}, {Tests: []dataset.TestSummary{{ID: 1, Miles: 1}}}} {
		for _, r := range CheckShapes(ds) {
			if r.Pass {
				t.Errorf("%s passed on an empty dataset (measured %v)", r.Name, r.Measured)
			}
		}
	}
}

func TestShapeMedianEmpty(t *testing.T) {
	var q quantiles
	if m := q.median(nil); m != 0 {
		t.Errorf("median(nil) = %v, want 0", m)
	}
	if m := q.median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v, want 2", m)
	}
}

// sortQuantile is the definition quantiles.of must reproduce bit for bit:
// copy the series, sort it, and index floor(q·n).
func sortQuantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	i := int(q * float64(len(c)))
	if i >= len(c) {
		i = len(c) - 1
	}
	return c[i]
}

var shapeQs = []float64{0, 0.25, 0.5, 0.75, 1}

// checkQuantiles compares every shapeQs quantile of v against sortQuantile
// by bits, and checks that v is left in order.
func checkQuantiles(t *testing.T, s *quantiles, v []float64) {
	t.Helper()
	orig := append([]float64(nil), v...)
	for _, q := range shapeQs {
		got, want := s.of(v, q), sortQuantile(v, q)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("of(%v, %v) = %v (%#x), sort gives %v (%#x)", orig, q, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for i := range v {
		if math.Float64bits(v[i]) != math.Float64bits(orig[i]) {
			t.Fatalf("of permuted its series: %v, was %v", v, orig)
		}
	}
}

// quantileCases are the inputs whose bits a tie order could decide (±0 and
// NaN payloads), plus duplicates, ±Inf and the shortest lengths.
func quantileCases() [][]float64 {
	negZero := math.Copysign(0, -1)
	nan2 := math.Float64frombits(0x7ff8000000000002)
	inf := math.Inf(1)
	return [][]float64{
		{},
		{1},
		{negZero},
		{2, 1},
		{negZero, 0},
		{0, negZero},
		{3, 1, 2},
		{negZero, 0, negZero},
		{0, negZero, 0, negZero, 0, negZero},
		{1, negZero, -1, 0, 2, negZero, 0},
		{math.NaN(), 1, 2},
		{math.NaN(), nan2, math.NaN(), nan2},
		{1, nan2, 1, math.NaN(), 0, negZero},
		{inf, -inf, 0, inf, -inf},
		{5, 5, 5, 5, 5},
		{2, 2, 1, 1, 3, 3, 2, 2},
		{-inf, math.NaN(), inf, negZero, 0, 7, 7, -7},
	}
}

func TestShapeQuantileMatchesSort(t *testing.T) {
	var s quantiles
	for _, v := range quantileCases() {
		checkQuantiles(t, &s, v)
	}
	// Longer series, past the sort's insertion-sort cutoff, with heavy
	// ties, zeros of both signs, NaNs, sorted and reversed runs.
	r := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.IntN(400)
		v := make([]float64, n)
		for i := range v {
			switch r.IntN(8) {
			case 0:
				v[i] = math.Copysign(0, -1)
			case 1:
				v[i] = 0
			case 2:
				if trial%4 == 0 {
					v[i] = math.NaN()
				} else {
					v[i] = float64(r.IntN(3))
				}
			default:
				v[i] = float64(r.IntN(n/4+1)) + r.Float64()*float64(trial%2)
			}
		}
		switch trial % 3 {
		case 1:
			slices.Sort(v)
		case 2:
			slices.Sort(v)
			slices.Reverse(v)
		}
		checkQuantiles(t, &s, v)
	}
}

func FuzzShapeQuantile(f *testing.F) {
	for _, v := range quantileCases() {
		f.Add(encodeFloats(v))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var s quantiles
		checkQuantiles(t, &s, decodeFloats(b))
	})
}

func encodeFloats(v []float64) []byte {
	b := make([]byte, 0, 8*len(v))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

func decodeFloats(b []byte) []float64 {
	v := make([]float64, len(b)/8)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return v
}

// TestAccumulatorReadsAllocFree pins the steady-state summary reads: once
// one read has grown the scratch, Headline for every operator and
// RoadSummaries allocate nothing.
func TestAccumulatorReadsAllocFree(t *testing.T) {
	ds := synthShapeDataset()
	for i := range ds.Thr {
		ds.Thr[i].Road = geo.RoadClass(i % geo.NumRoadClasses)
		ds.Thr[i].MPH = float64(10 + i%50)
	}
	ds.Handovers = append(ds.Handovers, dataset.HandoverRecord{Op: radio.ATT, DurSec: 0.05})
	ds.RTT = append(ds.RTT, dataset.RTTSample{Op: radio.Verizon, Ms: 40})
	ds.Apps = append(ds.Apps,
		dataset.AppRun{Op: radio.TMobile, App: dataset.TestVideo, QoE: 3},
		dataset.AppRun{Op: radio.TMobile, App: dataset.TestGaming, SendBitrate: 9})
	acc := NewAccumulator(ds.Seed)
	ds.EmitTo(acc)
	read := func() {
		for _, op := range radio.Operators() {
			acc.Headline(op)
		}
		acc.RoadSummaries()
	}
	read()
	if n := testing.AllocsPerRun(20, read); n != 0 {
		t.Errorf("Headline for every operator plus RoadSummaries allocate %v times per read, want 0", n)
	}
}
