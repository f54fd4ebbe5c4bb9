package campaign

import (
	"fmt"
	"math"
	"time"

	"wheels/internal/apps/gaming"
	"wheels/internal/apps/offload"
	"wheels/internal/apps/video"
	"wheels/internal/batch"
	"wheels/internal/dataset"
	"wheels/internal/deploy"
	"wheels/internal/geo"
	"wheels/internal/radio"
	"wheels/internal/ran"
	"wheels/internal/sim"
	"wheels/internal/transport"
	"wheels/internal/xcal"
)

// secs converts simulation seconds to a time.Duration.
func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// utc converts a simulation time to the wall clock.
func utc(t float64) time.Time { return sim.TripStart.UTC().Add(secs(t)) }

// bulkProfile maps a transfer direction to its traffic profile and test
// kind.
func bulkProfile(dir radio.Direction) (ran.Traffic, dataset.TestKind) {
	if dir == radio.Uplink {
		return ran.BacklogUL, dataset.TestBulkUL
	}
	return ran.BacklogDL, dataset.TestBulkDL
}

// runBulk runs one nuttcp-style bulk transfer on the phone and records its
// samples, KPI-joined rows, handovers, and the per-test summary.
func (c *Campaign) runBulk(sink dataset.Sink, id int, ph *phone, t float64, dir radio.Direction, static bool, st *staticState) {
	profile, _ := bulkProfile(dir)
	a := c.newAdapter(id, ph, t, profile, dir, st)
	res := transport.RunBulkWith(&a.Bulk, pathAdapter{a}, c.Cfg.BulkSec)
	c.emitBulk(sink, &a.Lane, t, dir, static, res)
}

// emitBulk streams a finished bulk transfer's records — the emit half of
// runBulk: throughput rows, handovers, then the summary. Rows stage into
// the lane's bank and reach the sink as one batch per table.
func (c *Campaign) emitBulk(sink dataset.Sink, ln *batch.Lane, t float64, dir radio.Direction, static bool, res transport.BulkResult) {
	_, kind := bulkProfile(dir)
	n := len(res.SamplesBps)
	if len(ln.Rows) < n {
		n = len(ln.Rows)
	}
	// Rows are km-ordered, so one route cursor serves the whole KPI join.
	cur := c.Route.Cursor()
	thr := ln.Bank.Thr[:0]
	for i := 0; i < n; i++ {
		r := ln.Rows[i]
		cc := r.CCDL
		if dir == radio.Uplink {
			cc = r.CCUL
		}
		thr = append(thr, dataset.ThroughputSample{
			TestID: ln.TestID, Op: ln.Op, Dir: dir, TimeUTC: utc(r.T), Bps: res.SamplesBps[i],
			Tech: r.Tech, RSRPdBm: r.RSRP, SINRdB: r.SINR, MCS: r.MCS, BLER: r.BLER, CC: cc,
			MPH: r.MPH, Km: r.Km, Zone: cur.TimezoneAt(r.Km), Road: cur.RoadClassAt(r.Km),
			Server: ln.Server.Kind, Static: static, HOs: r.HOs,
		})
	}
	ln.Bank.Thr = thr
	sink.EmitThrAll(thr)
	sink.EmitHandoverAll(ln.HORecs)

	if c.Cfg.RawLogDir != "" {
		if err := c.exportRaw(ln, string(kind), t, res.SamplesBps, n); err != nil {
			panic(fmt.Sprintf("campaign: raw log export: %v", err))
		}
	}

	sum := dataset.TestSummary{
		ID: ln.TestID, Op: ln.Op, Kind: kind, Dir: dir, StartUTC: utc(t), DurSec: c.Cfg.BulkSec,
		Zone: ln.LastS.Zone, Server: ln.Server.Kind, Static: static,
		MeanBps: res.MeanBps(), StdFracBps: res.StdFrac(),
		HighSpeedFrac: ln.HighSpeedFrac(), HOCount: ln.HOCount(),
	}
	if !static {
		sum.Miles = c.Trace.MilesBetween(t, t+c.Cfg.BulkSec)
	}
	if dir == radio.Downlink {
		sum.RxBytes = res.DeliveredBytes
	} else {
		sum.TxBytes = res.DeliveredBytes
	}
	sink.EmitTest(sum)
}

// rttIntervalSec is the ping cadence of the RTT test (one echo per 200 ms,
// §5); RTT tests tick at this interval.
const rttIntervalSec = 0.2

// runRTT runs one ping test on the phone and records each sample.
func (c *Campaign) runRTT(sink dataset.Sink, id int, ph *phone, t float64, static bool, st *staticState) {
	a := c.newAdapter(id, ph, t, ran.RTTProbe, radio.Downlink, st)
	nextPing := 0.0
	for tt := 0.0; tt < c.Cfg.RTTSec; tt += rttIntervalSec {
		_, _, rtt, outage := a.advance(rttIntervalSec)
		if tt >= nextPing {
			nextPing += rttIntervalSec
			if outage {
				continue
			}
			a.Pings = append(a.Pings, batch.Ping{
				T: a.T, Ms: rtt, Tech: a.Last.Tech,
				MPH: a.LastS.MPH, Km: a.LastS.Km, Zone: a.LastS.Zone,
			})
		}
	}
	c.emitRTT(sink, &a.Lane, t, static)
}

// emitRTT streams a finished ping test's records — the emit half of runRTT.
// Ping rows land in the rtt table in probe order, staged through the
// lane's bank like emitBulk's throughput rows.
func (c *Campaign) emitRTT(sink dataset.Sink, ln *batch.Lane, t float64, static bool) {
	rtt := ln.Bank.RTT[:0]
	for _, p := range ln.Pings {
		rtt = append(rtt, dataset.RTTSample{
			TestID: ln.TestID, Op: ln.Op, TimeUTC: utc(p.T), Ms: p.Ms, Tech: p.Tech,
			MPH: p.MPH, Km: p.Km, Zone: p.Zone, Server: ln.Server.Kind,
			Static: static,
		})
	}
	ln.Bank.RTT = rtt
	sink.EmitRTTAll(rtt)
	sink.EmitHandoverAll(ln.HORecs)

	mean, stdFrac := pingMeanStdFrac(ln.Pings)
	sum := dataset.TestSummary{
		ID: ln.TestID, Op: ln.Op, Kind: dataset.TestRTT, Dir: radio.Downlink, StartUTC: utc(t),
		DurSec: c.Cfg.RTTSec, Zone: ln.LastS.Zone, Server: ln.Server.Kind, Static: static,
		MeanRTTms: mean, StdFracRTT: stdFrac,
		HighSpeedFrac: ln.HighSpeedFrac(), HOCount: ln.HOCount(),
	}
	if !static {
		sum.Miles = c.Trace.MilesBetween(t, t+c.Cfg.RTTSec)
	}
	sink.EmitTest(sum)
}

// pingMeanStdFrac returns the mean RTT of a ping series and its standard
// deviation as a fraction of that mean (0, 0 for an empty or zero series).
func pingMeanStdFrac(pings []batch.Ping) (mean, stdFrac float64) {
	if len(pings) == 0 {
		return 0, 0
	}
	for _, p := range pings {
		mean += p.Ms
	}
	mean /= float64(len(pings))
	if mean == 0 {
		return 0, 0
	}
	var ss float64
	for _, p := range pings {
		d := p.Ms - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss/float64(len(pings))) / mean
}

// exportRaw writes the raw XCAL + app log file pair for a finished bulk
// test (Config.RawLogDir).
func (c *Campaign) exportRaw(ln *batch.Lane, kind string, t float64, samples []float64, n int) error {
	exp := &xcal.Exporter{Dir: c.Cfg.RawLogDir}
	var kpis []xcal.KPIEntry
	var app []xcal.AppEntry
	for i := 0; i < n; i++ {
		r := ln.Rows[i]
		kpis = append(kpis, xcal.KPIEntry{
			TimeUTC: utc(r.T), Tech: r.Tech, RSRPdBm: r.RSRP, SINRdB: r.SINR,
			MCS: r.MCS, BLER: r.BLER, CCDown: r.CCDL, CCUp: r.CCUL, MPH: r.MPH,
		})
		app = append(app, xcal.AppEntry{TimeUTC: utc(r.T), Value: samples[i]})
	}
	var sigs []xcal.SignalEvent
	for _, h := range ln.HORecs {
		sigs = append(sigs, xcal.SignalEvent{
			TimeUTC: h.TimeUTC, FromTech: h.FromTech, ToTech: h.ToTech,
			FromCell: h.FromCell, ToCell: h.ToCell, DurMs: h.DurSec * 1000,
		})
	}
	// The test id disambiguates tests of the same kind within one second.
	tag := fmt.Sprintf("%s-%d", kind, ln.TestID)
	offset := ln.LastS.Zone.UTCOffsetHours()
	return exp.ExportTest(ln.Op, tag, utc(t), offset, kpis, sigs, app)
}

// speedTestSec is the duration of the commercial-style speed test.
const speedTestSec = 15.0

// runSpeedTest runs the Table 3 extension: an 8-connection peak-seeking
// downlink test to the nearest server, on the same radio state the nuttcp
// tests use. The reported "peak" lands in MeanBps of a TestSpeed summary.
func (c *Campaign) runSpeedTest(sink dataset.Sink, id int, ph *phone, t float64) {
	a := c.newAdapter(id, ph, t, ran.BacklogDL, radio.Downlink, nil)
	res := transport.RunSpeedTest(pathAdapter{a}, speedTestSec, transport.SpeedTestConns)
	sink.EmitHandoverAll(a.HORecs)
	sink.EmitTest(dataset.TestSummary{
		ID: a.TestID, Op: ph.op, Kind: dataset.TestSpeed, Dir: radio.Downlink, StartUTC: utc(t),
		DurSec: speedTestSec, Zone: a.LastS.Zone, Server: a.Server.Kind,
		MeanBps:       res.PeakBps,
		HighSpeedFrac: a.HighSpeedFrac(), HOCount: a.HOCount(),
		Miles:   c.Trace.MilesBetween(t, t+speedTestSec),
		RxBytes: res.MeanBps / 8 * speedTestSec,
	})
}

func (c *Campaign) runOffload(sink dataset.Sink, id int, ph *phone, t float64, appCfg offload.Config, kind dataset.TestKind, compressed bool) {
	a := c.newAdapter(id, ph, t, ran.AppUL, radio.Uplink, nil)
	res := offload.Run(netAdapter{a}, appCfg, compressed, true)
	sink.EmitHandoverAll(a.HORecs)
	sink.EmitApp(dataset.AppRun{
		ID: a.TestID, Op: ph.op, App: kind, StartUTC: utc(t), DurSec: appCfg.DurSec,
		Server: a.Server.Kind, Compressed: compressed,
		HighSpeedFrac: a.HighSpeedFrac(), HOCount: a.HOCount(),
		MedianE2EMs: res.MedianE2EMs, OffloadFPS: res.OffloadFPS, MAP: res.MAP,
	})
}

func (c *Campaign) runVideo(sink dataset.Sink, id int, ph *phone, t float64) {
	a := c.newAdapter(id, ph, t, ran.AppDL, radio.Downlink, nil)
	res := video.Run(netAdapter{a}, c.Cfg.VideoSec)
	sink.EmitHandoverAll(a.HORecs)
	sink.EmitApp(dataset.AppRun{
		ID: a.TestID, Op: ph.op, App: dataset.TestVideo, StartUTC: utc(t), DurSec: c.Cfg.VideoSec,
		Server: a.Server.Kind, HighSpeedFrac: a.HighSpeedFrac(), HOCount: a.HOCount(),
		QoE: res.QoE, RebufFrac: res.RebufFrac, AvgBitrate: res.AvgBitrate,
	})
}

func (c *Campaign) runGaming(sink dataset.Sink, id int, ph *phone, t float64) {
	a := c.newAdapter(id, ph, t, ran.AppDL, radio.Downlink, nil)
	res := gaming.Run(netAdapter{a}, c.Cfg.GamingSec)
	sink.EmitHandoverAll(a.HORecs)
	sink.EmitApp(dataset.AppRun{
		ID: a.TestID, Op: ph.op, App: dataset.TestGaming, StartUTC: utc(t), DurSec: c.Cfg.GamingSec,
		Server: a.Server.Kind, HighSpeedFrac: a.HighSpeedFrac(), HOCount: a.HOCount(),
		SendBitrate: res.SendBitrate, NetLatencyMs: res.NetLatencyMs, FrameDrop: res.FrameDrop,
	})
}

// runStaticBattery runs one phone's static city baseline (§5.1) — a
// downlink and an uplink bulk test and an RTT test, ids id onward — at a
// stop s in city. The team searched each city for a 5G mmWave base station
// and measured facing it, falling back to mid-band where mmWave could not
// be found — which in practice meant mmWave for Verizon and AT&T and
// mid-band for T-Mobile (Fig. 3a).
func (c *Campaign) runStaticBattery(sink dataset.Sink, id int, ph *phone, t float64, s geo.Sample, city geo.City) {
	tech := radio.NRmmW
	if ph.op == radio.TMobile && !ph.dep.HasTech(s.Km, radio.NRmmW) {
		tech = radio.NRMid
	}
	st := &staticState{
		link: radio.NewLink(c.rng.Stream("static", city.Name, ph.op.String(), tech.String()), ph.op, tech),
		tech: tech,
		km:   s.Km,
		pos:  city.Pos,
		zone: s.Zone,
	}
	c.runBulk(sink, id, ph, t, radio.Downlink, true, st)
	c.runBulk(sink, id+1, ph, t+c.Cfg.BulkSec+2, radio.Uplink, true, st)
	c.runRTT(sink, id+2, ph, t+2*(c.Cfg.BulkSec+2), true, st)
}

// runPassiveLogger walks the phone's carrier's handover-logger — the §3
// phones that passively logged the serving technology with ping-only
// traffic for the whole trip, riding in the same car and so seeing the
// same deployment — along the trace, logging every PassiveSampleSec.
func (c *Campaign) runPassiveLogger(ph *phone) []dataset.PassiveSample {
	end := c.EndKm()
	ue := ran.NewUEWithConfig(c.rng.Stream("ho-logger"), ph.dep, c.hoCfg[ph.op])
	step := c.Cfg.PassiveSampleSec
	if step <= 0 {
		step = 2
	}
	// Cell-ID memo: a logger camps on the same cell for many consecutive
	// samples, so the string form is re-rendered only when the serving
	// cell actually changes. The init flag matters because the zero
	// CellKey names a real cell.
	var lastKey deploy.CellKey
	var lastID string
	haveID := false
	var out []dataset.PassiveSample
	for i := 0; i < len(c.Trace.Samples); i += int(step) {
		s := c.Trace.Samples[i]
		if s.Km >= end {
			break
		}
		snap := ue.Step(s.T, step, s.Km, s.MPH, s.Road, s.Zone, ran.Idle)
		rec := dataset.PassiveSample{
			Op: ph.op, TimeUTC: utc(s.T), Km: s.Km, Zone: s.Zone,
		}
		if snap.Outage {
			rec.NoSvc = true
			rec.Tech = radio.LTE
		} else {
			rec.Tech = snap.Tech
			if key := snap.Cell.Key(); !haveID || key != lastKey {
				lastKey, lastID, haveID = key, key.String(), true
			}
			rec.Cell = lastID
		}
		out = append(out, rec)
	}
	return out
}
