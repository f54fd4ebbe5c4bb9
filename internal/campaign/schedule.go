package campaign

import (
	"wheels/internal/apps/offload"
	"wheels/internal/dataset"
	"wheels/internal/geo"
	"wheels/internal/radio"
)

// phaseKind names one entry of the campaign's phase schedule.
type phaseKind uint8

const (
	// phaseProgress runs no test: it marks the start of a trip day, where
	// Cfg.Progress fires.
	phaseProgress phaseKind = iota
	phaseBulkDL
	phaseBulkUL
	phaseRTT
	phaseSpeedTest
	phaseAR
	phaseARCompressed
	phaseCAV
	phaseCAVCompressed
	phaseVideo
	phaseGaming
	// phaseStatic is one city's static baseline battery: every phone runs
	// staticTests tests back to back.
	phaseStatic
)

// summaryOnly reports whether a phase of kind k emits no per-sample rows:
// the speed test and the app battery write one test or app row per phone
// plus that test's handovers, and no throughput, RTT or passive rows.
func (k phaseKind) summaryOnly() bool {
	switch k {
	case phaseSpeedTest, phaseAR, phaseARCompressed, phaseCAV, phaseCAVCompressed, phaseVideo, phaseGaming:
		return true
	}
	return false
}

// phaseLabels are the pprof `phase` label values of the test phases.
var phaseLabels = [...]string{
	phaseProgress:      "progress",
	phaseBulkDL:        string(dataset.TestBulkDL),
	phaseBulkUL:        string(dataset.TestBulkUL),
	phaseRTT:           string(dataset.TestRTT),
	phaseSpeedTest:     string(dataset.TestSpeed),
	phaseAR:            string(dataset.TestAR),
	phaseARCompressed:  string(dataset.TestAR),
	phaseCAV:           string(dataset.TestCAV),
	phaseCAVCompressed: string(dataset.TestCAV),
	phaseVideo:         string(dataset.TestVideo),
	phaseGaming:        string(dataset.TestGaming),
	phaseStatic:        "static",
}

// staticTests is the number of tests in one phone's static battery
// (downlink bulk, uplink bulk, RTT).
const staticTests = 3

// schedule is the campaign's phase schedule: the phases in order, and the
// trace positions its progress marks and static batteries refer to.
type schedule struct {
	phases []phase
	stops  []stop
}

// phase is one entry of the schedule: a test phase every phone runs, or a
// progress mark.
type phase struct {
	t float64 // start time
	// id is the phase's first test id. Phone i runs test id+i, or, in a
	// static battery, tests id+staticTests*i onward — the ids a sequential
	// run hands out phase-major in operator order, static batteries
	// phone-major.
	id   int
	kind phaseKind
	stop int32 // phaseProgress, phaseStatic: index into schedule.stops
}

// stop is a trace position the schedule refers to: the day and km a
// progress mark reports, or a static battery's stop and city.
type stop struct {
	s    geo.Sample
	city geo.City
}

// plan fills sd with the campaign's whole phase schedule, built from the
// trace, the route and the config alone — no phone state is read — with
// every test id allocated up front. The loop visits the route exactly as
// the campaign drives it: a static battery once per newly entered city,
// then one round-robin cycle of driving tests with all phones starting
// each test at the same instant (concurrency across carriers is what
// enables the Fig. 6 pairwise analysis), jumping overnight gaps to the
// next day's first sample. sd's backing arrays are reused.
func (c *Campaign) plan(sd *schedule) {
	sd.phases, sd.stops = sd.phases[:0], sd.stops[:0]
	n := len(c.phones)
	add := func(kind phaseKind, t float64, tests int) {
		sd.phases = append(sd.phases, phase{t: t, id: c.nextID + 1, kind: kind})
		c.nextID += tests
	}
	addStop := func(kind phaseKind, t float64, tests int, st stop) {
		add(kind, t, tests)
		sd.phases[len(sd.phases)-1].stop = int32(len(sd.stops))
		sd.stops = append(sd.stops, st)
	}

	end := c.EndKm()
	last := c.Trace.Samples[len(c.Trace.Samples)-1].T
	t := c.Trace.Samples[0].T
	// t and s.Km only move forward here, so every cursor lookup after the
	// first is O(1).
	cur := c.Trace.Cursor()
	routeCur := c.Route.Cursor()
	visited := map[string]bool{}
	day := 0
	for {
		s := c.whereCur(cur, t)
		if s.Km >= end || t > last {
			break
		}
		if s.Day != day {
			day = s.Day
			if c.Cfg.Progress != nil {
				addStop(phaseProgress, t, 0, stop{s: s})
			}
		}
		// Overnight gap: jump to the next sample's time.
		if idx := cur.At(t); idx >= 0 && t-c.Trace.Samples[idx].T > maxExtrapolateSec {
			if idx+1 >= len(c.Trace.Samples) {
				break
			}
			t = c.Trace.Samples[idx+1].T
			continue
		}

		// Static baseline battery once per newly entered city. The battery
		// does not advance the clock.
		if c.Cfg.EnableStatic {
			if city, ok := routeCur.CityAreaAt(s.Km); ok && !visited[city.Name] {
				visited[city.Name] = true
				addStop(phaseStatic, t, staticTests*n, stop{s: s, city: city})
			}
		}

		// One round-robin cycle of driving tests.
		cfg := c.Cfg
		add(phaseBulkDL, t, n)
		t += bulkSec + gapSec
		add(phaseBulkUL, t, n)
		t += bulkSec + gapSec
		add(phaseRTT, t, n)
		t += rttSec + gapSec
		if cfg.EnableSpeedTest {
			add(phaseSpeedTest, t, n)
			t += speedTestSec + gapSec
		}
		if cfg.EnableApps {
			for _, kinds := range [...][2]phaseKind{{phaseAR, phaseCAV}, {phaseARCompressed, phaseCAVCompressed}} {
				add(kinds[0], t, n)
				t += offload.ARConfig().DurSec + gapSec
				add(kinds[1], t, n)
				t += offload.CAVConfig().DurSec + gapSec
			}
			add(phaseVideo, t, n)
			t += cfg.VideoSec + gapSec
			add(phaseGaming, t, n)
			t += cfg.GamingSec + gapSec
		}
	}
}

// runPhase runs phone i's part of one scheduled test phase into sink. Both
// engines execute every phase through here; they differ in which
// goroutine runs which phone when, and in the oracle's demanding every
// radio output on every tick (Campaign.floorNeed).
func (c *Campaign) runPhase(sink dataset.Sink, i int, ph *phone, sd *schedule, p *phase) {
	id := p.id + i
	switch p.kind {
	case phaseBulkDL:
		c.runBulk(sink, id, ph, p.t, radio.Downlink, false, nil)
	case phaseBulkUL:
		c.runBulk(sink, id, ph, p.t, radio.Uplink, false, nil)
	case phaseRTT:
		c.runRTT(sink, id, ph, p.t, false, nil)
	case phaseSpeedTest:
		c.runSpeedTest(sink, id, ph, p.t)
	case phaseAR, phaseARCompressed:
		c.runOffload(sink, id, ph, p.t, offload.ARConfig(), dataset.TestAR, p.kind == phaseARCompressed)
	case phaseCAV, phaseCAVCompressed:
		c.runOffload(sink, id, ph, p.t, offload.CAVConfig(), dataset.TestCAV, p.kind == phaseCAVCompressed)
	case phaseVideo:
		c.runVideo(sink, id, ph, p.t)
	case phaseGaming:
		c.runGaming(sink, id, ph, p.t)
	case phaseStatic:
		st := &sd.stops[p.stop]
		c.runStaticBattery(sink, p.id+staticTests*i, ph, p.t, st.s, st.city)
	}
}

// progress reports a progress mark through Cfg.Progress.
func (c *Campaign) progress(sd *schedule, p *phase) {
	s := sd.stops[p.stop].s
	c.Cfg.Progress(s.Day, s.Km, c.Route.LengthKm())
}
