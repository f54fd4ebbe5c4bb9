package analysis

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"wheels/internal/dataset"
	"wheels/internal/geo"
	"wheels/internal/radio"
	"wheels/internal/servers"
)

var base = time.Date(2022, 8, 8, 15, 0, 0, 0, time.UTC)

// thrSample builds a driving throughput sample with sensible defaults.
func thrSample(op radio.Operator, dir radio.Direction, tech radio.Tech, mbps, mph float64, at time.Duration) dataset.ThroughputSample {
	return dataset.ThroughputSample{
		TestID: 1, Op: op, Dir: dir, TimeUTC: base.Add(at), Bps: mbps * 1e6, Tech: tech,
		RSRPdBm: -100, MPH: mph, Zone: geo.Pacific, Road: geo.RoadHighway, Server: servers.Cloud,
	}
}

func TestFig2aShares(t *testing.T) {
	ds := &dataset.Dataset{Thr: []dataset.ThroughputSample{
		thrSample(radio.TMobile, radio.Downlink, radio.NRMid, 100, 60, 0),
		thrSample(radio.TMobile, radio.Downlink, radio.NRMid, 100, 60, time.Second),
		thrSample(radio.TMobile, radio.Downlink, radio.LTE, 10, 60, 2*time.Second),
		{Op: radio.TMobile, Dir: radio.Downlink, Tech: radio.NRmmW, Bps: 1e9, MPH: 10,
			TimeUTC: base, Static: true}, // static: excluded
	}}
	f := ComputeFig2a(ds)
	s := f.Share[radio.TMobile]
	if math.Abs(s[radio.NRMid]-2.0/3) > 1e-9 {
		t.Errorf("mid share = %v, want 2/3", s[radio.NRMid])
	}
	if s[radio.NRmmW] != 0 {
		t.Error("static sample leaked into coverage")
	}
	if math.Abs(s.FiveG()-2.0/3) > 1e-9 || math.Abs(s.HighSpeed()-2.0/3) > 1e-9 {
		t.Error("FiveG/HighSpeed aggregation wrong")
	}
	if !strings.Contains(f.Render(), "T-Mobile") {
		t.Error("Render missing operator name")
	}
}

func TestFig2aWeightsByDistance(t *testing.T) {
	// A sample at 60 mph covers 6x the distance of one at 10 mph.
	ds := &dataset.Dataset{Thr: []dataset.ThroughputSample{
		thrSample(radio.Verizon, radio.Downlink, radio.NRMid, 100, 60, 0),
		thrSample(radio.Verizon, radio.Downlink, radio.LTE, 10, 10, time.Second),
	}}
	s := ComputeFig2a(ds).Share[radio.Verizon]
	if math.Abs(s[radio.NRMid]-6.0/7) > 1e-9 {
		t.Errorf("distance weighting broken: mid share = %v, want 6/7", s[radio.NRMid])
	}
}

func TestFig2bDirectionSplit(t *testing.T) {
	ds := &dataset.Dataset{Thr: []dataset.ThroughputSample{
		thrSample(radio.ATT, radio.Downlink, radio.NRMid, 100, 60, 0),
		thrSample(radio.ATT, radio.Uplink, radio.LTE, 5, 60, time.Second),
	}}
	f := ComputeFig2b(ds)
	if f.Share[radio.ATT][radio.Downlink][radio.NRMid] != 1 {
		t.Error("DL share wrong")
	}
	if f.Share[radio.ATT][radio.Uplink][radio.LTE] != 1 {
		t.Error("UL share wrong")
	}
}

// TestFig1EmptyHalfRendersNoSamples covers a drive that ended before the
// route's midpoint: its west half carries a measured share and counts, and
// its east half, with no sample at all, renders "no samples" rather than a
// 0.0% share.
func TestFig1EmptyHalfRendersNoSamples(t *testing.T) {
	const midKm = 100
	ds := &dataset.Dataset{
		Passive: []dataset.PassiveSample{
			{Op: radio.TMobile, Tech: radio.NRMid, Km: 10},
			{Op: radio.TMobile, Tech: radio.LTE, Km: 20},
			{Op: radio.TMobile, NoSvc: true, Tech: radio.LTE, Km: 30}, // no service: not counted
		},
		Thr: []dataset.ThroughputSample{
			{Op: radio.TMobile, Tech: radio.NRMid, MPH: 60, Km: 15},
			{Op: radio.TMobile, Tech: radio.NRMid, MPH: 60, Km: 25},
		},
	}
	f := ComputeFig1(ds, midKm)
	if f.TMobilePassiveWestN != 2 || f.TMobileActiveWestN != 2 {
		t.Errorf("west counts = %d passive, %d active; want 2, 2", f.TMobilePassiveWestN, f.TMobileActiveWestN)
	}
	if f.TMobilePassiveEastN != 0 || f.TMobileActiveEastN != 0 {
		t.Errorf("east counts = %d passive, %d active; want 0, 0", f.TMobilePassiveEastN, f.TMobileActiveEastN)
	}
	out := f.Render()
	if want := "T-Mobile west half: passive 5G= 50.0% active 5G=100.0%"; !strings.Contains(out, want) {
		t.Errorf("render lacks %q:\n%s", want, out)
	}
	if want := "T-Mobile east half: passive 5G=no samples active 5G=no samples"; !strings.Contains(out, want) {
		t.Errorf("render lacks %q:\n%s", want, out)
	}
}

// TestFig1NoPassiveRendersNoSamples covers a dataset logged with the
// passive loggers off, as drivesim -quick writes it: every operator's
// passive share renders "no samples", and its active share, which has
// samples, still renders as a percentage.
func TestFig1NoPassiveRendersNoSamples(t *testing.T) {
	ds := &dataset.Dataset{}
	for _, op := range radio.Operators() {
		ds.Thr = append(ds.Thr, thrSample(op, radio.Downlink, radio.NRMid, 100, 60, 0))
	}
	f := ComputeFig1(ds, 100)
	out := f.Render()
	for _, op := range radio.Operators() {
		if f.PassiveN[op] != 0 || f.ActiveN[op] != 1 {
			t.Errorf("%v: counts = %d passive, %d active; want 0, 1", op, f.PassiveN[op], f.ActiveN[op])
		}
		if want := fmt.Sprintf("%-9s passive 5G=no samples  active 5G=100.0%%", op); !strings.Contains(out, want) {
			t.Errorf("render lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "passive 5G=  0.0%") {
		t.Errorf("render reports a passive share of no samples as 0.0%%:\n%s", out)
	}
}

func TestFig3SplitsStaticAndDriving(t *testing.T) {
	ds := &dataset.Dataset{
		Thr: []dataset.ThroughputSample{
			{Op: radio.Verizon, Dir: radio.Downlink, Bps: 1500e6, Static: true, TimeUTC: base},
			thrSample(radio.Verizon, radio.Downlink, radio.LTE, 20, 60, 0),
		},
		RTT: []dataset.RTTSample{
			{Op: radio.Verizon, Ms: 10, Static: true, TimeUTC: base},
			{Op: radio.Verizon, Ms: 80, TimeUTC: base},
		},
	}
	f := ComputeFig3(ds)
	if f.StaticThr[radio.Verizon][radio.Downlink].Median() != 1500 {
		t.Error("static throughput misclassified")
	}
	if f.DrivingThr[radio.Verizon][radio.Downlink].Median() != 20 {
		t.Error("driving throughput misclassified")
	}
	if f.StaticRTT[radio.Verizon].Median() != 10 || f.DrivingRTT[radio.Verizon].Median() != 80 {
		t.Error("RTT split wrong")
	}
	if got := f.FracBelow5Mbps(radio.Verizon, radio.Downlink); got != 0 {
		t.Errorf("FracBelow5Mbps = %v, want 0", got)
	}
}

func TestFig6PairsConcurrentSamples(t *testing.T) {
	ds := &dataset.Dataset{Thr: []dataset.ThroughputSample{
		thrSample(radio.Verizon, radio.Downlink, radio.NRmmW, 100, 60, 0),
		thrSample(radio.TMobile, radio.Downlink, radio.NRMid, 40, 60, 0),
		thrSample(radio.ATT, radio.Downlink, radio.LTE, 10, 60, 0),
		// A second instant with only two carriers present.
		thrSample(radio.Verizon, radio.Downlink, radio.LTE, 5, 60, time.Second),
		thrSample(radio.TMobile, radio.Downlink, radio.LTE, 15, 60, time.Second),
	}}
	f := ComputeFig6(ds)
	vt := Pair{radio.Verizon, radio.TMobile}
	c := f.Diff[vt][radio.Downlink]
	if c.N() != 2 {
		t.Fatalf("V-T diffs = %d, want 2", c.N())
	}
	// Diffs are {60, -10}.
	if c.Max() != 60 || c.Min() != -10 {
		t.Errorf("diffs = [%v, %v], want [-10, 60]", c.Min(), c.Max())
	}
	fr := f.BinFrac[vt][radio.Downlink]
	if fr[HTHT] != 0.5 || fr[LTLT] != 0.5 {
		t.Errorf("bin fractions = %v", fr)
	}
	ta := Pair{radio.TMobile, radio.ATT}
	if f.Diff[ta][radio.Downlink].N() != 1 {
		t.Error("T-A pair should only match the first instant")
	}
	if f.BinFrac[ta][radio.Downlink][HTLT] != 1 {
		t.Error("T(mid)-A(LTE) should be HT-LT")
	}
}

func TestTable2Correlations(t *testing.T) {
	var ds dataset.Dataset
	// Construct samples where throughput is exactly proportional to MCS
	// and unrelated to BLER.
	for i := 0; i < 50; i++ {
		s := thrSample(radio.Verizon, radio.Downlink, radio.LTE, float64(10+i), 60, time.Duration(i)*time.Second)
		s.MCS = 10 + i
		s.BLER = 0.1
		ds.Thr = append(ds.Thr, s)
	}
	tbl := ComputeTable2(&ds)
	if r := tbl.R[radio.Verizon][radio.Downlink]["MCS"]; math.Abs(r-1) > 1e-9 {
		t.Errorf("MCS correlation = %v, want 1", r)
	}
	// Constant BLER: correlation is undefined; floating-point accumulation
	// may yield NaN or a value indistinguishable from zero.
	if r := tbl.R[radio.Verizon][radio.Downlink]["BLER"]; !math.IsNaN(r) && math.Abs(r) > 0.2 {
		t.Errorf("constant BLER correlation = %v, want NaN or ~0", r)
	}
	if tbl.MaxAbs() < 0.99 {
		t.Errorf("MaxAbs = %v", tbl.MaxAbs())
	}
}

func TestFig11PerMileAndDurations(t *testing.T) {
	ds := &dataset.Dataset{
		Tests: []dataset.TestSummary{
			{ID: 1, Op: radio.Verizon, Kind: dataset.TestBulkDL, Dir: radio.Downlink, Miles: 0.5, HOCount: 2},
			{ID: 2, Op: radio.Verizon, Kind: dataset.TestBulkDL, Dir: radio.Downlink, Miles: 0.5, HOCount: 0},
			{ID: 3, Op: radio.Verizon, Kind: dataset.TestRTT, Dir: radio.Downlink, Miles: 0.4, HOCount: 9},  // not a bulk test
			{ID: 4, Op: radio.Verizon, Kind: dataset.TestBulkDL, Dir: radio.Downlink, Miles: 0, HOCount: 3}, // static-ish, skipped
		},
		Handovers: []dataset.HandoverRecord{
			{Op: radio.Verizon, Dir: radio.Downlink, DurSec: 0.050},
			{Op: radio.Verizon, Dir: radio.Downlink, DurSec: 0.070},
		},
	}
	f := ComputeFig11(ds)
	c := f.PerMile[radio.Verizon][radio.Downlink]
	if c.N() != 2 {
		t.Fatalf("per-mile points = %d, want 2", c.N())
	}
	if c.Max() != 4 {
		t.Errorf("max HOs/mile = %v, want 4", c.Max())
	}
	d := f.DurationMs[radio.Verizon][radio.Downlink]
	if d.N() != 2 || d.Median() != 60 {
		t.Errorf("durations: n=%d median=%v", d.N(), d.Median())
	}
}

func TestFig12Deltas(t *testing.T) {
	mk := func(i int, mbps float64, hos int) dataset.ThroughputSample {
		s := thrSample(radio.TMobile, radio.Downlink, radio.LTE, mbps, 60, time.Duration(i*500)*time.Millisecond)
		s.HOs = hos
		return s
	}
	ds := &dataset.Dataset{Thr: []dataset.ThroughputSample{
		mk(0, 40, 0), mk(1, 40, 0), mk(2, 10, 1), mk(3, 50, 0), mk(4, 50, 0),
	}}
	f := ComputeFig12(ds)
	c := f.DeltaT1[radio.TMobile][radio.Downlink]
	if c.N() != 1 {
		t.Fatalf("dT1 points = %d, want 1", c.N())
	}
	// dT1 = 10 - (40+50)/2 = -35; dT2 = (50+50)/2 - (40+40)/2 = 10.
	if got := c.Median(); math.Abs(got+35) > 1e-9 {
		t.Errorf("dT1 = %v, want -35", got)
	}
	if got := f.DeltaT2[radio.TMobile][radio.Downlink].Median(); math.Abs(got-10) > 1e-9 {
		t.Errorf("dT2 = %v, want 10", got)
	}
}

func TestFig12KindAttribution(t *testing.T) {
	mk := func(i int, mbps float64, hos int) dataset.ThroughputSample {
		s := thrSample(radio.TMobile, radio.Downlink, radio.LTE, mbps, 60, time.Duration(i*500)*time.Millisecond)
		s.HOs = hos
		return s
	}
	ds := &dataset.Dataset{
		Thr: []dataset.ThroughputSample{mk(0, 40, 0), mk(1, 40, 0), mk(2, 10, 1), mk(3, 50, 0), mk(4, 50, 0)},
		// Sample index 2 carries time 1.0 s, so its interval is (0.5s, 1.0s].
		Handovers: []dataset.HandoverRecord{{
			TestID: 1, Op: radio.TMobile, Dir: radio.Downlink,
			TimeUTC:  base.Add(900 * time.Millisecond),
			FromTech: radio.NRMid, ToTech: radio.LTE,
		}},
	}
	f := ComputeFig12(ds)
	c, ok := f.ByKind[radio.TMobile][radio.Downlink]["5G->4G"]
	if !ok || c.N() != 1 {
		t.Fatalf("5G->4G dT2 points = %v", f.ByKind)
	}
}

func TestFig10Buckets(t *testing.T) {
	if bucketFor(0) != 0 || bucketFor(0.99) != 3 || bucketFor(1) != 3 || bucketFor(0.5) != 2 {
		t.Error("bucketFor boundaries wrong")
	}
	ds := &dataset.Dataset{Tests: []dataset.TestSummary{
		{Op: radio.ATT, Kind: dataset.TestBulkDL, Dir: radio.Downlink, MeanBps: 50e6, HighSpeedFrac: 1.0},
		{Op: radio.ATT, Kind: dataset.TestBulkDL, Dir: radio.Downlink, MeanBps: 10e6, HighSpeedFrac: 0.0},
	}}
	f := ComputeFig10(ds)
	if f.Thr[radio.ATT][radio.Downlink][3].MedianThr != 50 {
		t.Error("100% high-speed test not in top bucket")
	}
	if f.Thr[radio.ATT][radio.Downlink][0].MedianThr != 10 {
		t.Error("0% high-speed test not in bottom bucket")
	}
}

func TestTable1Counts(t *testing.T) {
	ds := &dataset.Dataset{
		Handovers: []dataset.HandoverRecord{
			{Op: radio.Verizon, FromCell: "V-LTE-1", ToCell: "V-LTE-2"},
			{Op: radio.Verizon, FromCell: "V-LTE-2", ToCell: "V-LTE-1"},
		},
		Passive: []dataset.PassiveSample{{Op: radio.Verizon, Cell: "V-LTE-9"}},
		Tests: []dataset.TestSummary{
			{Op: radio.Verizon, DurSec: 60, RxBytes: 2e9},
		},
	}
	t1 := ComputeTable1(ds, 5711, 14, 10)
	if t1.UniqueCells[radio.Verizon] != 3 {
		t.Errorf("unique cells = %d, want 3", t1.UniqueCells[radio.Verizon])
	}
	if t1.Handovers[radio.Verizon] != 2 {
		t.Errorf("handovers = %d, want 2", t1.Handovers[radio.Verizon])
	}
	if t1.RxGB != 2 {
		t.Errorf("RxGB = %v, want 2", t1.RxGB)
	}
	if t1.RuntimeMin[radio.Verizon] != 1 {
		t.Errorf("runtime = %v min, want 1", t1.RuntimeMin[radio.Verizon])
	}
	if !strings.Contains(t1.Render(), "5711") {
		t.Error("Render missing distance")
	}
}

func TestOffloadFigReducer(t *testing.T) {
	ds := &dataset.Dataset{Apps: []dataset.AppRun{
		{Op: radio.Verizon, App: dataset.TestAR, Compressed: true, MedianE2EMs: 200, OffloadFPS: 5, MAP: 30, Server: servers.Edge, HOCount: 1},
		{Op: radio.Verizon, App: dataset.TestAR, Compressed: true, MedianE2EMs: 300, OffloadFPS: 3, MAP: 25, Server: servers.Cloud, HOCount: 4},
		{Op: radio.Verizon, App: dataset.TestAR, Compressed: false, MedianE2EMs: 800, OffloadFPS: 1, MAP: 20, Server: servers.Cloud, HOCount: 0},
		{Op: radio.Verizon, App: dataset.TestCAV, Compressed: true, MedianE2EMs: 400, OffloadFPS: 2, Server: servers.Cloud, HOCount: 2},
		// A run that never completed an offload: excluded from E2E CDFs.
		{Op: radio.Verizon, App: dataset.TestAR, Compressed: true, MedianE2EMs: 0, OffloadFPS: 0, Server: servers.Cloud},
	}}
	f := ComputeOffloadFig(ds, dataset.TestAR)
	if f.E2E[radio.Verizon][true].N() != 2 || f.E2E[radio.Verizon][false].N() != 1 {
		t.Error("compression split wrong")
	}
	if f.Edge[radio.Verizon].N() != 1 || f.Cloud[radio.Verizon].N() != 1 {
		t.Error("server split wrong")
	}
	cav := ComputeOffloadFig(ds, dataset.TestCAV)
	if cav.E2E[radio.Verizon][true].N() != 1 {
		t.Error("CAV runs leaked or lost")
	}
}

func TestVideoAndGamingReducers(t *testing.T) {
	ds := &dataset.Dataset{Apps: []dataset.AppRun{
		{Op: radio.TMobile, App: dataset.TestVideo, QoE: -60, RebufFrac: 0.5, AvgBitrate: 8, Server: servers.Cloud, HOCount: 3},
		{Op: radio.TMobile, App: dataset.TestVideo, QoE: 40, RebufFrac: 0.01, AvgBitrate: 50, Server: servers.Cloud, HOCount: 1},
		{Op: radio.TMobile, App: dataset.TestGaming, SendBitrate: 20, NetLatencyMs: 70, FrameDrop: 0.02, HOCount: 2},
	}}
	v := ComputeVideoFig(ds)
	if v.QoE[radio.TMobile].N() != 2 {
		t.Fatal("video runs lost")
	}
	if v.NegQoEFrac[radio.TMobile] != 0.5 {
		t.Errorf("negative QoE fraction = %v, want 0.5", v.NegQoEFrac[radio.TMobile])
	}
	g := ComputeGamingFig(ds)
	if g.Bitrate[radio.TMobile].Median() != 20 {
		t.Error("gaming bitrate lost")
	}
}

func TestRendersDoNotPanic(t *testing.T) {
	empty := &dataset.Dataset{}
	for _, s := range []string{
		ComputeFig1(empty, 2800).Render(),
		ComputeFig2a(empty).Render(),
		ComputeFig2b(empty).Render(),
		ComputeFig2c(empty).Render(),
		ComputeFig2d(empty).Render(),
		ComputeFig3(empty).Render(),
		ComputeFig4(empty).Render(),
		ComputeFig5(empty).Render(),
		ComputeFig6(empty).Render(),
		ComputeFig7(empty).Render(),
		ComputeFig8(empty).Render(),
		ComputeFig9(empty).Render(),
		ComputeFig10(empty).Render(),
		ComputeFig11(empty).Render(),
		ComputeFig12(empty).Render(),
		ComputeTable1(empty, 0, 0, 0).Render(),
		ComputeTable2(empty).Render(),
		ComputeTable3(empty).Render(),
		ComputeOffloadFig(empty, dataset.TestAR).Render(),
		ComputeVideoFig(empty).Render(),
		ComputeGamingFig(empty).Render(),
	} {
		if s == "" {
			t.Error("a renderer produced empty output")
		}
	}
}

func TestBucketRuns(t *testing.T) {
	fracs := []float64{0.1, 0.9, 0.95, 0.3}
	vals := []float64{100, 200, 300, 150}
	b := bucketRuns(fracs, vals, true)
	if b[0].N != 1 || b[0].Median != 100 {
		t.Errorf("bucket 0 = %+v", b[0])
	}
	if b[3].N != 2 || b[3].Median != 250 || b[3].Worst != 300 {
		t.Errorf("bucket 3 = %+v", b[3])
	}
	if b[1].N != 1 || b[1].Median != 150 {
		t.Errorf("bucket 1 = %+v", b[1])
	}
	// worstIsMax=false flips the bad end to the minimum.
	bm := bucketRuns(fracs, vals, false)
	if bm[3].Worst != 200 {
		t.Errorf("min-worst bucket 3 = %+v", bm[3])
	}
}

func TestOffloadFigBucketsPopulated(t *testing.T) {
	ds := &dataset.Dataset{Apps: []dataset.AppRun{
		{Op: radio.Verizon, App: dataset.TestAR, Compressed: true, MedianE2EMs: 150, OffloadFPS: 5, HighSpeedFrac: 0.9, Server: servers.Cloud},
		{Op: radio.Verizon, App: dataset.TestAR, Compressed: true, MedianE2EMs: 400, OffloadFPS: 2, HighSpeedFrac: 0.05, Server: servers.Cloud},
	}}
	f := ComputeOffloadFig(ds, dataset.TestAR)
	b := f.By5GTime[radio.Verizon]
	if b[3].Median != 150 || b[0].Median != 400 {
		t.Errorf("5G-time buckets wrong: %+v", b)
	}
}

func TestHOBuckets(t *testing.T) {
	if hoBucketFor(0) != 0 || hoBucketFor(1) != 1 || hoBucketFor(2) != 1 ||
		hoBucketFor(3) != 2 || hoBucketFor(5) != 2 || hoBucketFor(6) != 3 || hoBucketFor(40) != 3 {
		t.Error("hoBucketFor edges wrong")
	}
	b := bucketByHO([]float64{0, 1, 7}, []float64{10, 20, 30})
	if b[0].Median != 10 || b[1].Median != 20 || b[3].Median != 30 || b[2].N != 0 {
		t.Errorf("bucketByHO = %+v", b)
	}
}

func TestOffloadFigHOBuckets(t *testing.T) {
	ds := &dataset.Dataset{Apps: []dataset.AppRun{
		{Op: radio.Verizon, App: dataset.TestAR, Compressed: true, MedianE2EMs: 150, OffloadFPS: 5, MAP: 30, HOCount: 0, Server: servers.Cloud},
		{Op: radio.Verizon, App: dataset.TestAR, Compressed: true, MedianE2EMs: 200, OffloadFPS: 4, MAP: 28, HOCount: 4, Server: servers.Cloud},
	}}
	f := ComputeOffloadFig(ds, dataset.TestAR)
	hb := f.ByHOCount[radio.Verizon]
	if hb[0].N != 1 || hb[2].N != 1 {
		t.Errorf("HO buckets = %+v", hb)
	}
	// AR's metric is mAP.
	if hb[0].Median != 30 || hb[2].Median != 28 {
		t.Errorf("HO bucket medians = %+v", hb)
	}
}
