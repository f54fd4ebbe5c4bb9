package campaign

import (
	"math"
	"testing"

	"wheels/internal/dataset"
	"wheels/internal/geo"
	"wheels/internal/radio"
)

// where is whereAt over a binary search of the trace: the position oracle
// for tests that jump around in time.
func (c *Campaign) where(t float64) geo.Sample {
	return c.whereAt(c.Trace.At(t), t)
}

// quickDS runs a reduced campaign (first 200 km, network tests only) once
// per test binary invocation.
var quickCache *dataset.Dataset

func quickDS(t *testing.T) *dataset.Dataset {
	t.Helper()
	if quickCache == nil {
		quickCache = New(QuickConfig(23, 200)).Run()
	}
	return quickCache
}

func TestQuickCampaignProducesAllRecordTypes(t *testing.T) {
	ds := quickDS(t)
	if len(ds.Thr) == 0 {
		t.Fatal("no throughput samples")
	}
	if len(ds.RTT) == 0 {
		t.Fatal("no RTT samples")
	}
	if len(ds.Tests) == 0 {
		t.Fatal("no test summaries")
	}
	if len(ds.Handovers) == 0 {
		t.Fatal("no handover records")
	}
}

func TestAllOperatorsAndDirectionsCovered(t *testing.T) {
	ds := quickDS(t)
	seen := map[radio.Operator]map[radio.Direction]int{}
	for _, s := range ds.Thr {
		if seen[s.Op] == nil {
			seen[s.Op] = map[radio.Direction]int{}
		}
		seen[s.Op][s.Dir]++
	}
	for _, op := range radio.Operators() {
		for _, dir := range radio.Directions() {
			if seen[op][dir] == 0 {
				t.Errorf("no %v %v throughput samples", op, dir)
			}
		}
	}
}

func TestTestsRunConcurrentlyAcrossOperators(t *testing.T) {
	// Fig. 6 requires concurrent samples: each cycle starts the same test
	// on all three phones at the same instant.
	ds := quickDS(t)
	byStart := map[int64]map[radio.Operator]bool{}
	for _, ts := range ds.Tests {
		if ts.Kind != dataset.TestBulkDL || ts.Static {
			continue
		}
		k := ts.StartUTC.UnixNano()
		if byStart[k] == nil {
			byStart[k] = map[radio.Operator]bool{}
		}
		byStart[k][ts.Op] = true
	}
	triples := 0
	for _, ops := range byStart {
		if len(ops) == 3 {
			triples++
		}
	}
	if triples == 0 {
		t.Error("no DL test ran concurrently on all three carriers")
	}
}

func TestSampleFieldsAreSane(t *testing.T) {
	ds := quickDS(t)
	for i, s := range ds.Thr {
		if s.Bps < 0 || s.Bps > 4e9 {
			t.Fatalf("sample %d: throughput %v out of range", i, s.Bps)
		}
		if s.RSRPdBm > -40 || s.RSRPdBm < -150 {
			t.Fatalf("sample %d: RSRP %v out of range", i, s.RSRPdBm)
		}
		if s.MCS < 0 || s.MCS > radio.MaxMCS {
			t.Fatalf("sample %d: MCS %v out of range", i, s.MCS)
		}
		if s.MPH < 0 || s.MPH > 90 {
			t.Fatalf("sample %d: speed %v out of range", i, s.MPH)
		}
		if s.Km < 0 || s.Km > 210 {
			t.Fatalf("sample %d: km %v outside the 200 km quick run", i, s.Km)
		}
	}
	for i, s := range ds.RTT {
		if s.Ms <= 0 || s.Ms > 4000 {
			t.Fatalf("RTT sample %d: %v ms out of range", i, s.Ms)
		}
	}
}

func TestKPIRowsAlignWithSamples(t *testing.T) {
	// Every bulk test must contribute the same number of samples as its
	// duration implies (60 per 30 s test), all carrying its test id.
	ds := quickDS(t)
	perTest := map[int]int{}
	for _, s := range ds.Thr {
		perTest[s.TestID]++
	}
	for id, n := range perTest {
		if n != 60 {
			t.Errorf("test %d has %d samples, want 60", id, n)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := New(QuickConfig(7, 60)).Run()
	b := New(QuickConfig(7, 60)).Run()
	if len(a.Thr) != len(b.Thr) {
		t.Fatalf("sample counts differ: %d vs %d", len(a.Thr), len(b.Thr))
	}
	for i := range a.Thr {
		if a.Thr[i] != b.Thr[i] {
			t.Fatalf("throughput sample %d differs between identical runs", i)
		}
	}
	if len(a.Handovers) != len(b.Handovers) {
		t.Fatal("handover counts differ between identical runs")
	}
}

func TestSeedChangesData(t *testing.T) {
	a := New(QuickConfig(7, 60)).Run()
	b := New(QuickConfig(8, 60)).Run()
	if len(a.Thr) == len(b.Thr) {
		same := true
		for i := range a.Thr {
			if a.Thr[i].Bps != b.Thr[i].Bps {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical throughput data")
		}
	}
}

func TestStaticBatteryAndApps(t *testing.T) {
	// A short run with everything enabled: static tests in LA, passive
	// loggers, and one app battery.
	cfg := DefaultConfig(23)
	cfg.KmLimit = 40
	cfg.VideoSec = 30 // keep the test quick
	cfg.GamingSec = 20
	ds := New(cfg).Run()

	statics := 0
	for _, ts := range ds.Tests {
		if ts.Static {
			statics++
			if ts.Miles != 0 {
				t.Error("static test logged driven miles")
			}
		}
	}
	if statics == 0 {
		t.Error("no static tests ran in Los Angeles")
	}

	apps := map[dataset.TestKind]int{}
	for _, a := range ds.Apps {
		apps[a.App]++
	}
	for _, k := range []dataset.TestKind{dataset.TestAR, dataset.TestCAV, dataset.TestVideo, dataset.TestGaming} {
		if apps[k] == 0 {
			t.Errorf("no %v app runs", k)
		}
	}

	if len(ds.Passive) == 0 {
		t.Error("no passive handover-logger samples")
	}
	for _, p := range ds.Passive {
		if p.Op == radio.ATT && p.Tech.Is5G() && !p.NoSvc {
			t.Error("AT&T handover-logger reported 5G; Fig. 1d shows 4G only")
			break
		}
	}
}

func TestARRunsComeInCompressionPairs(t *testing.T) {
	cfg := DefaultConfig(23)
	cfg.KmLimit = 40
	cfg.VideoSec = 30
	cfg.GamingSec = 20
	ds := New(cfg).Run()
	comp, raw := 0, 0
	for _, a := range ds.Apps {
		if a.App == dataset.TestAR {
			if a.Compressed {
				comp++
			} else {
				raw++
			}
		}
	}
	if comp == 0 || comp != raw {
		t.Errorf("AR runs: %d compressed, %d raw; want equal non-zero counts", comp, raw)
	}
}

func TestSpeedTestExceedsSingleConnection(t *testing.T) {
	cfg := QuickConfig(23, 150)
	cfg.EnableSpeedTest = true
	ds := New(cfg).Run()
	var nut, spd []float64
	for _, ts := range ds.Tests {
		switch ts.Kind {
		case dataset.TestBulkDL:
			nut = append(nut, ts.MeanBps)
		case dataset.TestSpeed:
			spd = append(spd, ts.MeanBps)
		}
	}
	if len(spd) == 0 {
		t.Fatal("no speed tests ran")
	}
	mean := func(v []float64) float64 {
		var s float64
		for _, x := range v {
			s += x
		}
		return s / float64(len(v))
	}
	// The peak-seeking multi-connection methodology reports more than the
	// single-connection mean on the same drive (Table 3's methodology gap).
	if mean(spd) <= mean(nut) {
		t.Errorf("speedtest mean %.1f Mbps not above nuttcp mean %.1f", mean(spd)/1e6, mean(nut)/1e6)
	}
}

func TestProgressCallback(t *testing.T) {
	cfg := QuickConfig(23, 60)
	var days []int
	cfg.Progress = func(day int, km, totalKm float64) {
		days = append(days, day)
		if km < 0 || km > totalKm {
			t.Errorf("progress km %v outside [0, %v]", km, totalKm)
		}
	}
	New(cfg).Run()
	if len(days) == 0 || days[0] != 1 {
		t.Errorf("progress days = %v, want to start with day 1", days)
	}
	for i := 1; i < len(days); i++ {
		if days[i] != days[i-1]+1 {
			t.Errorf("progress days not consecutive: %v", days)
		}
	}
}

func TestWhereExtrapolationAndOvernightClamp(t *testing.T) {
	c := New(QuickConfig(23, 0))
	samples := c.Trace.Samples

	// Find the first overnight gap: consecutive samples more than
	// maxExtrapolateSec apart.
	gap := -1
	for i := 0; i+1 < len(samples); i++ {
		if samples[i+1].T-samples[i].T > maxExtrapolateSec {
			gap = i
			break
		}
	}
	if gap < 0 {
		t.Fatal("trace has no overnight gap to test against")
	}
	last, next := samples[gap], samples[gap+1]

	// Within the cap the position extrapolates at the sample's speed.
	got := c.where(last.T + 1)
	want := last.Km + last.MPH*geo.KmPerMile/3600
	if math.Abs(got.Km-want) > 1e-9 {
		t.Errorf("where(T+1s).Km = %.6f, want extrapolated %.6f", got.Km, want)
	}

	// Beyond the cap — inside the overnight gap — the position clamps to
	// the next day's first sample instead of extrapolating for hours.
	got = c.where(last.T + maxExtrapolateSec + 1)
	if got != next {
		t.Errorf("where inside overnight gap = day %d km %.2f, want next sample (day %d km %.2f)",
			got.Day, got.Km, next.Day, next.Km)
	}
	mid := last.T + (next.T-last.T)/2
	if got = c.where(mid); got != next {
		t.Errorf("where at gap midpoint = km %.2f, want clamped to next sample km %.2f", got.Km, next.Km)
	}

	// Before the trace starts: the first sample. Past its end: the final
	// sample, extrapolation capped.
	if got = c.where(samples[0].T - 10); got != samples[0] {
		t.Error("where before trace start did not return the first sample")
	}
	end := samples[len(samples)-1]
	got = c.where(end.T + 3600)
	if got.Km > end.Km+end.MPH*geo.KmPerMile/3600*maxExtrapolateSec+1e-9 {
		t.Errorf("where past trace end extrapolated unboundedly: km %.3f vs final sample %.3f", got.Km, end.Km)
	}
}
