// Benchmark harness: one benchmark per table and figure in the paper's
// evaluation (Table 1 – Table 5, Fig. 1 – Fig. 16, and the appendix
// Figs. 18–22), plus ablation benches for the design choices called out in
// DESIGN.md §4. Each figure benchmark reduces a shared campaign dataset
// (built once per benchmark run) and reports the figure's headline numbers
// as custom metrics, so `go test -bench .` both times the reductions and
// prints the reproduced values next to the paper's.
package wheels_test

import (
	"sync"
	"testing"

	"wheels/internal/analysis"
	"wheels/internal/apps"
	"wheels/internal/apps/offload"
	"wheels/internal/campaign"
	"wheels/internal/dataset"
	"wheels/internal/deploy"
	"wheels/internal/geo"
	"wheels/internal/multipath"
	"wheels/internal/pathtest"
	"wheels/internal/radio"
	"wheels/internal/ran"
	"wheels/internal/replay"
	"wheels/internal/sim"
	"wheels/internal/transport"
)

// benchDS builds the shared campaign dataset once: the first 1200 km with
// every test type enabled and app sessions shortened to keep the one-time
// setup around ten seconds.
var (
	benchOnce sync.Once
	benchData *dataset.Dataset
	benchRt   *geo.Route
)

func benchDataset(b *testing.B) *dataset.Dataset {
	b.Helper()
	benchOnce.Do(func() {
		cfg := campaign.DefaultConfig(23)
		cfg.KmLimit = 1200
		cfg.VideoSec = 60
		cfg.GamingSec = 30
		c := campaign.New(cfg)
		benchRt = c.Route
		benchData = c.Run()
	})
	return benchData
}

func BenchmarkTable1_DatasetStats(b *testing.B) {
	ds := benchDataset(b)
	var t1 analysis.Table1
	states, cities := benchRt.Reached(benchRt.LengthKm())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t1 = analysis.ComputeTable1(ds, benchRt.LengthKm(), states, cities)
	}
	b.ReportMetric(float64(t1.Handovers[radio.Verizon]), "handovers-V")
	b.ReportMetric(float64(t1.UniqueCells[radio.TMobile]), "cells-T")
	b.ReportMetric(t1.RxGB, "rxGB")
}

func BenchmarkFig1_PassiveVsActiveCoverage(b *testing.B) {
	ds := benchDataset(b)
	var f analysis.Fig1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = analysis.ComputeFig1(ds, 600)
	}
	// Paper: passive logging badly under-reports 5G (AT&T passive = 0%).
	b.ReportMetric(100*f.Passive[radio.TMobile].FiveG(), "passive5G-T-%")
	b.ReportMetric(100*f.Active[radio.TMobile].FiveG(), "active5G-T-%")
	b.ReportMetric(100*f.Passive[radio.ATT].FiveG(), "passive5G-A-%")
}

func BenchmarkFig2a_TechCoverage(b *testing.B) {
	ds := benchDataset(b)
	var f analysis.Fig2a
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = analysis.ComputeFig2a(ds)
	}
	// Paper: 68% (T), ~22% (V), ~18% (A); high-speed 38% / ~14% / 3%.
	b.ReportMetric(100*f.Share[radio.TMobile].FiveG(), "5G-T-%")
	b.ReportMetric(100*f.Share[radio.Verizon].FiveG(), "5G-V-%")
	b.ReportMetric(100*f.Share[radio.ATT].FiveG(), "5G-A-%")
	b.ReportMetric(100*f.Share[radio.TMobile].HighSpeed(), "hs5G-T-%")
}

func BenchmarkFig2b_CoverageByDirection(b *testing.B) {
	ds := benchDataset(b)
	var f analysis.Fig2b
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = analysis.ComputeFig2b(ds)
	}
	b.ReportMetric(100*f.Share[radio.Verizon][radio.Downlink].HighSpeed(), "hsDL-V-%")
	b.ReportMetric(100*f.Share[radio.Verizon][radio.Uplink].HighSpeed(), "hsUL-V-%")
}

func BenchmarkFig2c_CoverageByTimezone(b *testing.B) {
	ds := benchDataset(b)
	var f analysis.Fig2c
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = analysis.ComputeFig2c(ds)
	}
	b.ReportMetric(100*f.Share[radio.TMobile][geo.Pacific].HighSpeed(), "hsPac-T-%")
	b.ReportMetric(100*f.Share[radio.TMobile][geo.Mountain].HighSpeed(), "hsMtn-T-%")
}

func BenchmarkFig2d_CoverageBySpeed(b *testing.B) {
	ds := benchDataset(b)
	var f analysis.Fig2d
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = analysis.ComputeFig2d(ds)
	}
	// Paper: high-speed 5G coverage falls from the low-speed (city) bin to
	// the 60+ mph (interstate) bin for every carrier.
	b.ReportMetric(100*f.Share[radio.Verizon][geo.SpeedLow].HighSpeed(), "hsLow-V-%")
	b.ReportMetric(100*f.Share[radio.Verizon][geo.SpeedHigh].HighSpeed(), "hsHigh-V-%")
}

func BenchmarkFig3_StaticVsDriving(b *testing.B) {
	ds := benchDataset(b)
	var f analysis.Fig3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = analysis.ComputeFig3(ds)
	}
	// Paper: static medians 1511/311/710 Mbps DL; driving medians 6-34;
	// ~35% of driving samples below 5 Mbps.
	b.ReportMetric(f.StaticThr[radio.Verizon][radio.Downlink].Median(), "staticDL-V-Mbps")
	b.ReportMetric(f.DrivingThr[radio.Verizon][radio.Downlink].Median(), "driveDL-V-Mbps")
	b.ReportMetric(100*f.FracBelow5Mbps(radio.TMobile, radio.Downlink), "below5-T-%")
	b.ReportMetric(f.DrivingRTT[radio.Verizon].Median(), "driveRTT-V-ms")
}

func BenchmarkFig4_PerTechnology(b *testing.B) {
	ds := benchDataset(b)
	var f analysis.Fig4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = analysis.ComputeFig4(ds)
	}
	b.ReportMetric(f.Thr[radio.TMobile][radio.Downlink][radio.NRMid].Max(), "midDLmax-T-Mbps")
	if c, ok := f.VerizonRTTEdge[radio.LTEA]; ok && c.N() > 0 {
		b.ReportMetric(c.Median(), "edgeRTT-LTEA-ms")
	}
	if c, ok := f.VerizonRTTCloud[radio.LTEA]; ok && c.N() > 0 {
		b.ReportMetric(c.Median(), "cloudRTT-LTEA-ms")
	}
}

func BenchmarkFig5_ThroughputByTimezone(b *testing.B) {
	ds := benchDataset(b)
	var f analysis.Fig5
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = analysis.ComputeFig5(ds)
	}
	if c, ok := f.Thr[radio.TMobile][radio.Downlink][geo.Pacific]; ok {
		b.ReportMetric(c.Median(), "dlPac-T-Mbps")
	}
	if c, ok := f.Thr[radio.TMobile][radio.Downlink][geo.Mountain]; ok {
		b.ReportMetric(c.Median(), "dlMtn-T-Mbps")
	}
}

func BenchmarkFig6_OperatorDiversity(b *testing.B) {
	ds := benchDataset(b)
	var f analysis.Fig6
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = analysis.ComputeFig6(ds)
	}
	vt := analysis.Pair{A: radio.Verizon, B: radio.TMobile}
	if c, ok := f.Diff[vt][radio.Downlink]; ok {
		b.ReportMetric(c.Median(), "diffVT-DL-Mbps")
		b.ReportMetric(float64(c.N()), "pairs")
	}
	b.ReportMetric(100*f.BinFrac[vt][radio.Uplink][analysis.LTLT], "LTLT-UL-%")
}

func BenchmarkFig7_ThroughputVsSpeed(b *testing.B) {
	ds := benchDataset(b)
	var f analysis.Fig7
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = analysis.ComputeFig7(ds)
	}
	cells := f.Cells[radio.TMobile][radio.Downlink]
	if c, ok := cells[geo.SpeedHigh][radio.NRMid]; ok {
		b.ReportMetric(c.Median, "midHighSpd-T-Mbps")
	}
	if c, ok := cells[geo.SpeedLow][radio.NRmmW]; ok {
		b.ReportMetric(float64(c.N), "mmWLowSpd-T-n")
	}
}

func BenchmarkFig8_RTTVsSpeed(b *testing.B) {
	ds := benchDataset(b)
	var f analysis.Fig8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = analysis.ComputeFig8(ds)
	}
	cells := f.Cells[radio.Verizon]
	if c, ok := cells[geo.SpeedLow][radio.LTE]; ok {
		b.ReportMetric(c.Median, "rttLow-V-LTE-ms")
	}
	if c, ok := cells[geo.SpeedHigh][radio.LTE]; ok {
		b.ReportMetric(c.Median, "rttHigh-V-LTE-ms")
	}
}

func BenchmarkTable2_KPICorrelations(b *testing.B) {
	ds := benchDataset(b)
	var t2 analysis.Table2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t2 = analysis.ComputeTable2(ds)
	}
	// Paper: no strong correlations; HO ~ -0.02..-0.05.
	b.ReportMetric(t2.R[radio.Verizon][radio.Downlink]["HO"], "r-HO-V-DL")
	b.ReportMetric(t2.R[radio.TMobile][radio.Uplink]["MCS"], "r-MCS-T-UL")
}

func BenchmarkFig9_TestLevelStats(b *testing.B) {
	ds := benchDataset(b)
	var f analysis.Fig9
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = analysis.ComputeFig9(ds)
	}
	// Paper: per-test DL medians 30/37/48 Mbps, RTT 64/82/81 ms.
	b.ReportMetric(f.MeanThr[radio.Verizon][radio.Downlink].Median(), "testDL-V-Mbps")
	b.ReportMetric(f.MeanRTT[radio.Verizon].Median(), "testRTT-V-ms")
	b.ReportMetric(100*f.StdThr[radio.Verizon][radio.Downlink].Median(), "stdfracDL-V-%")
}

func BenchmarkFig10_PerfVs5GTime(b *testing.B) {
	ds := benchDataset(b)
	var f analysis.Fig10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = analysis.ComputeFig10(ds)
	}
	buckets := f.Thr[radio.Verizon][radio.Downlink]
	b.ReportMetric(buckets[0].MedianThr, "dl-0-25pc5G-Mbps")
	b.ReportMetric(buckets[3].MedianThr, "dl-75-100pc5G-Mbps")
}

func BenchmarkTable3_OoklaComparison(b *testing.B) {
	ds := benchDataset(b)
	var t3 analysis.Table3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t3 = analysis.ComputeTable3(ds)
	}
	b.ReportMetric(t3.OurDL[radio.Verizon], "ourDL-V-Mbps")
	b.ReportMetric(analysis.OoklaQ3_2022[radio.Verizon].DLMbps, "ooklaDL-V-Mbps")
}

func BenchmarkFig11_HandoverStats(b *testing.B) {
	ds := benchDataset(b)
	var f analysis.Fig11
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = analysis.ComputeFig11(ds)
	}
	// Paper: 2-3 HOs/mile median, 53-76 ms durations.
	b.ReportMetric(f.PerMile[radio.Verizon][radio.Downlink].Median(), "HOsPerMile-V")
	b.ReportMetric(f.DurationMs[radio.Verizon][radio.Downlink].Median(), "HOdur-V-ms")
	b.ReportMetric(f.DurationMs[radio.TMobile][radio.Downlink].Median(), "HOdur-T-ms")
}

func BenchmarkFig12_HandoverImpact(b *testing.B) {
	ds := benchDataset(b)
	var f analysis.Fig12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = analysis.ComputeFig12(ds)
	}
	d1 := f.DeltaT1[radio.Verizon][radio.Downlink]
	d2 := f.DeltaT2[radio.Verizon][radio.Downlink]
	// Paper: dT1 < 0 about 80% of the time; post-HO > pre-HO 55-60%.
	b.ReportMetric(100*d1.FracBelow(0), "dT1neg-V-%")
	b.ReportMetric(100*(1-d2.FracBelow(0)), "dT2pos-V-%")
}

func BenchmarkTable4_AppConfigs(b *testing.B) {
	var ar, cav offload.Config
	for i := 0; i < b.N; i++ {
		ar, cav = offload.ARConfig(), offload.CAVConfig()
	}
	b.ReportMetric(ar.RawKB, "arRawKB")
	b.ReportMetric(cav.InferMs, "cavInferMs")
}

func BenchmarkFig13_ARApp(b *testing.B) {
	ds := benchDataset(b)
	var f analysis.OffloadFig
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = analysis.ComputeOffloadFig(ds, dataset.TestAR)
	}
	// Paper: driving median E2E 214 ms (compressed), 4.35 FPS, mAP 30.1.
	b.ReportMetric(f.E2E[radio.Verizon][true].Median(), "e2e-V-ms")
	b.ReportMetric(f.FPS[radio.Verizon][true].Median(), "fps-V")
	b.ReportMetric(f.MAP[radio.Verizon][true].Median(), "mAP-V")
	b.ReportMetric(f.HOCorrelation[radio.Verizon], "rHO-V")
}

func BenchmarkFig14_CAVApp(b *testing.B) {
	ds := benchDataset(b)
	var f analysis.OffloadFig
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = analysis.ComputeOffloadFig(ds, dataset.TestCAV)
	}
	// Paper: driving median E2E 269 ms compressed; minimum observed 148 ms.
	b.ReportMetric(f.E2E[radio.Verizon][true].Median(), "e2e-V-ms")
	b.ReportMetric(f.E2E[radio.Verizon][true].Min(), "e2eMin-V-ms")
	b.ReportMetric(f.E2E[radio.Verizon][false].Median(), "e2eRaw-V-ms")
}

func BenchmarkTable5_LatencyToMAP(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		for ft := 0.0; ft < 35; ft += 0.5 {
			sink += offload.MAPForLatency(ft, i%2 == 0)
		}
	}
	b.ReportMetric(offload.MAPForLatency(0, false), "mAP-bin0")
	b.ReportMetric(offload.MAPForLatency(29, true), "mAP-bin29-comp")
	_ = sink
}

func BenchmarkFig15_VideoStreaming(b *testing.B) {
	ds := benchDataset(b)
	var f analysis.VideoFig
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = analysis.ComputeVideoFig(ds)
	}
	// Paper: driving median QoE -53.75 (best static 96.29); 40% negative.
	b.ReportMetric(f.QoE[radio.Verizon].Median(), "qoe-V")
	b.ReportMetric(100*f.NegQoEFrac[radio.Verizon], "negQoE-V-%")
	b.ReportMetric(100*f.Rebuf[radio.Verizon].Max(), "rebufMax-V-%")
}

func BenchmarkFig16_CloudGaming(b *testing.B) {
	ds := benchDataset(b)
	var f analysis.GamingFig
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = analysis.ComputeGamingFig(ds)
	}
	// Paper: median bitrate 17.5 Mbps (Verizon), drops median 1.6%.
	b.ReportMetric(f.Bitrate[radio.Verizon].Median(), "bitrate-V-Mbps")
	b.ReportMetric(f.Latency[radio.Verizon].Median(), "latency-V-ms")
	b.ReportMetric(100*f.Drops[radio.Verizon].Median(), "drops-V-%")
}

func BenchmarkFig18to20_AppsAllOperators(b *testing.B) {
	ds := benchDataset(b)
	var ar, cav analysis.OffloadFig
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ar = analysis.ComputeOffloadFig(ds, dataset.TestAR)
		cav = analysis.ComputeOffloadFig(ds, dataset.TestCAV)
	}
	// Paper §C.3: Verizon leads AR (lowest RTT); cross-operator CAV gaps
	// shrink under compression.
	for _, op := range radio.Operators() {
		b.ReportMetric(ar.E2E[op][true].Median(), "arE2E-"+op.Short()+"-ms")
	}
	b.ReportMetric(cav.E2E[radio.TMobile][false].Median(), "cavE2Eraw-T-ms")
}

func BenchmarkFig21_VideoAllOperators(b *testing.B) {
	ds := benchDataset(b)
	var f analysis.VideoFig
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = analysis.ComputeVideoFig(ds)
	}
	for _, op := range radio.Operators() {
		b.ReportMetric(f.QoE[op].Median(), "qoe-"+op.Short())
	}
}

func BenchmarkFig22_GamingAllOperators(b *testing.B) {
	ds := benchDataset(b)
	var f analysis.GamingFig
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = analysis.ComputeGamingFig(ds)
	}
	for _, op := range radio.Operators() {
		b.ReportMetric(f.Bitrate[op].Median(), "bitrate-"+op.Short()+"-Mbps")
	}
}

// --- Campaign engine benches ---

// campaignBenchConfig is the full LA→Boston methodology with app sessions
// shortened (as in benchDataset) so one serial iteration stays in the tens
// of seconds rather than minutes.
func campaignBenchConfig() campaign.Config {
	cfg := campaign.DefaultConfig(23)
	cfg.VideoSec = 60
	cfg.GamingSec = 30
	return cfg
}

// BenchmarkCampaign_Serial runs one full campaign on the production engine.
func BenchmarkCampaign_Serial(b *testing.B) {
	cfg := campaignBenchConfig()
	for i := 0; i < b.N; i++ {
		campaign.New(cfg).Run()
	}
}

// --- Ablation benches (DESIGN.md §4) ---

// BenchmarkAblation_ElevationPolicy removes the traffic-aware elevation
// policy's dependence on traffic (idle vs backlogged) and measures the 5G
// coverage share each view produces — the mechanism behind Fig. 1.
func BenchmarkAblation_ElevationPolicy(b *testing.B) {
	route := geo.NewRoute()
	dep := deploy.New(route, radio.TMobile, sim.NewRNG(23).Stream("deploy"))
	fiveG := func(tr ran.Traffic) float64 {
		ue := ran.NewUE(sim.NewRNG(23).Stream("ablate"), dep)
		hits, total := 0, 0
		tm := 0.0
		for km := 0.0; km < 800; km += 0.05 {
			snap := ue.Step(tm, 0.5, km, 60, route.RoadClassAt(km), route.TimezoneAt(km), tr)
			tm += 0.5
			if !snap.Outage {
				total++
				if snap.Tech.Is5G() {
					hits++
				}
			}
		}
		return float64(hits) / float64(total)
	}
	var idle, active float64
	for i := 0; i < b.N; i++ {
		idle = fiveG(ran.Idle)
		active = fiveG(ran.BacklogDL)
	}
	b.ReportMetric(100*idle, "idle5G-%")
	b.ReportMetric(100*active, "backlog5G-%")
}

// BenchmarkAblation_TransportModel compares CUBIC against the idealized
// fluid transport over the same driving link: the gap is the throughput
// cost of congestion-control dynamics.
func BenchmarkAblation_TransportModel(b *testing.B) {
	var cubic, fluid float64
	for i := 0; i < b.N; i++ {
		lc := radio.NewLink(sim.NewRNG(23).Stream("tm", "cubic"), radio.TMobile, radio.NRMid)
		lf := radio.NewLink(sim.NewRNG(23).Stream("tm", "cubic"), radio.TMobile, radio.NRMid)
		cubic = transport.RunBulk(&pathtest.DriveLink{Link: lc}, 30).MeanBps()
		fluid = transport.RunFluid(&pathtest.DriveLink{Link: lf}, 30).MeanBps()
	}
	b.ReportMetric(cubic/1e6, "cubic-Mbps")
	b.ReportMetric(fluid/1e6, "fluid-Mbps")
	b.ReportMetric(cubic/fluid, "utilization")
}

// constNet is a fixed path for the app-level ablations.
type constNet struct{ dl, ul, rtt float64 }

func (n constNet) Step(float64, radio.Need) apps.NetState {
	return apps.NetState{CapDLbps: n.dl, CapULbps: n.ul, RTTms: n.rtt}
}

// BenchmarkAblation_LocalTracking measures how much the AR app's on-device
// tracker protects accuracy at driving-grade latency.
func BenchmarkAblation_LocalTracking(b *testing.B) {
	net := constNet{dl: 30e6, ul: 10e6, rtt: 70}
	var with, without offload.Result
	for i := 0; i < b.N; i++ {
		with = offload.Run(net, offload.ARConfig(), true, true)
		without = offload.Run(net, offload.ARConfig(), true, false)
	}
	b.ReportMetric(with.MAP, "mAP-tracking")
	b.ReportMetric(without.MAP, "mAP-noTracking")
}

// BenchmarkAblation_EdgeServers measures the AR app against an in-network
// edge server versus a remote cloud at equal radio conditions.
func BenchmarkAblation_EdgeServers(b *testing.B) {
	var edge, cloud offload.Result
	for i := 0; i < b.N; i++ {
		edge = offload.Run(constNet{dl: 80e6, ul: 20e6, rtt: 18}, offload.ARConfig(), true, true)
		cloud = offload.Run(constNet{dl: 80e6, ul: 20e6, rtt: 75}, offload.ARConfig(), true, true)
	}
	b.ReportMetric(edge.MedianE2EMs, "edgeE2E-ms")
	b.ReportMetric(cloud.MedianE2EMs, "cloudE2E-ms")
	b.ReportMetric(edge.MAP-cloud.MAP, "mAPgain")
}

// --- Extension benches (beyond the paper) ---

// BenchmarkExtension_MultivariateKPI runs the paper's stated future work:
// a joint OLS model of throughput over all six KPIs.
func BenchmarkExtension_MultivariateKPI(b *testing.B) {
	ds := benchDataset(b)
	var m analysis.MultivariateKPI
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m = analysis.ComputeMultivariateKPI(ds)
	}
	if res, ok := m.Joint[radio.Verizon][radio.Downlink]; ok {
		b.ReportMetric(res.R2, "jointR2-V-DL")
		b.ReportMetric(m.BestSingle[radio.Verizon][radio.Downlink], "bestSingleR2-V-DL")
	}
}

// BenchmarkExtension_MultipathGain estimates the paper's multi-connectivity
// recommendation from concurrent 3-carrier samples.
func BenchmarkExtension_MultipathGain(b *testing.B) {
	ds := benchDataset(b)
	var g analysis.MultipathGain
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g = analysis.ComputeMultipathGain(ds, radio.Downlink)
	}
	b.ReportMetric(g.MedianGain(), "medianGain-x")
	b.ReportMetric(g.BestSingle.Median(), "bestSingle-Mbps")
	b.ReportMetric(g.Bonded.Median(), "bonded-Mbps")
}

// BenchmarkExtension_BondedTransport bonds three CUBIC subflows over
// independently varying per-carrier links (the multipath package) and
// compares against the best single subflow.
func BenchmarkExtension_BondedTransport(b *testing.B) {
	mkPaths := func() []transport.Path {
		var out []transport.Path
		for _, op := range radio.Operators() {
			out = append(out, &pathtest.DriveLink{
				Link: radio.NewLink(sim.NewRNG(23).Stream("bond", op.String()), op, radio.NRMid),
			})
		}
		return out
	}
	var bonded, best float64
	for i := 0; i < b.N; i++ {
		agg, err := multipath.NewAggregator(mkPaths()...)
		if err != nil {
			b.Fatal(err)
		}
		res := agg.RunBulk(30)
		bonded = res.Aggregate.MeanBps()
		best = 0
		for _, pp := range res.PerPath {
			if m := pp.MeanBps(); m > best {
				best = m
			}
		}
	}
	b.ReportMetric(bonded/1e6, "bonded-Mbps")
	b.ReportMetric(best/1e6, "bestSubflow-Mbps")
}

// BenchmarkExtension_SpeedTestGap measures Table 3's methodology gap: the
// same drive measured with 1-connection nuttcp vs an 8-connection
// peak-seeking speed test.
func BenchmarkExtension_SpeedTestGap(b *testing.B) {
	ds := benchDataset(b)
	var t3x analysis.Table3X
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t3x = analysis.ComputeTable3X(ds)
	}
	b.ReportMetric(t3x.NuttcpDL[radio.Verizon], "nuttcp-V-Mbps")
	b.ReportMetric(t3x.SpeedDL[radio.Verizon], "speedtest-V-Mbps")
}

// BenchmarkExtension_WhatIfReplay replays the recorded traces through the
// app models under the "edge everywhere" counterfactual (§8).
func BenchmarkExtension_WhatIfReplay(b *testing.B) {
	ds := benchDataset(b)
	ul := replay.Extract(ds, radio.Uplink)
	var base, edge replay.Outcome
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base = replay.ReplayAR(ul)
		edge = replay.ReplayAR(ul, replay.CapRTT(25))
	}
	b.ReportMetric(base.Median, "arE2E-baseline-ms")
	b.ReportMetric(edge.Median, "arE2E-edge-ms")
}

// BenchmarkExtension_CubicVsBBR compares nuttcp's CUBIC against BBR over
// the same driving radio link — how much of the driving throughput
// collapse a modern congestion controller would recover.
func BenchmarkExtension_CubicVsBBR(b *testing.B) {
	var cubic, bbr float64
	for i := 0; i < b.N; i++ {
		lc := radio.NewLink(sim.NewRNG(23).Stream("cc", "x"), radio.Verizon, radio.LTEA)
		lb := radio.NewLink(sim.NewRNG(23).Stream("cc", "x"), radio.Verizon, radio.LTEA)
		cubic = transport.RunBulk(&pathtest.DriveLink{Link: lc}, 30).MeanBps()
		bbr = transport.RunBulkBBR(&pathtest.DriveLink{Link: lb}, 30).MeanBps()
	}
	b.ReportMetric(cubic/1e6, "cubic-Mbps")
	b.ReportMetric(bbr/1e6, "bbr-Mbps")
	b.ReportMetric(bbr/cubic, "bbr-gain")
}

// BenchmarkAblation_OffloadPipelining measures the extension app-level
// optimization: overlapping frame compression with the previous upload
// (§8 recommendation 1 territory).
func BenchmarkAblation_OffloadPipelining(b *testing.B) {
	net := constNet{dl: 30e6, ul: 9e6, rtt: 70}
	var serial, pipe offload.Result
	for i := 0; i < b.N; i++ {
		serial = offload.Run(net, offload.CAVConfig(), true, true)
		pipe = offload.RunPipelined(net, offload.CAVConfig(), true, true)
	}
	b.ReportMetric(serial.MedianE2EMs, "serialE2E-ms")
	b.ReportMetric(pipe.MedianE2EMs, "pipelinedE2E-ms")
	b.ReportMetric(pipe.OffloadFPS-serial.OffloadFPS, "fpsGain")
}
