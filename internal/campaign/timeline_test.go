package campaign

import (
	"runtime"
	"testing"
	"time"

	"wheels/internal/dataset"
	"wheels/internal/sim"
)

// fullCellConfig is the differential cell with every optional subsystem on
// (passive loggers, static batteries, speed tests, apps), with short app
// sessions so the cell stays fast.
func fullCellConfig() Config {
	cfg := QuickConfig(23, 60)
	cfg.EnablePassive = true
	cfg.EnableStatic = true
	cfg.EnableSpeedTest = true
	cfg.EnableApps = true
	cfg.VideoSec = 30
	cfg.GamingSec = 15
	return cfg
}

// TestTimelineGOMAXPROCSDifferential runs the production engine on the full
// config at GOMAXPROCS 1 — the phones then take turns on one thread — and
// at 4, where they run in parallel and drift apart up to the lead bound,
// and requires both digests to equal each other and the scalar oracle's:
// how the scheduler interleaves the phone goroutines must not move a byte.
func TestTimelineGOMAXPROCSDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("full-config differential run is slow")
	}
	cfg := fullCellConfig()
	want := engineDigest(t, cfg, EngineScalar)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		if got := engineDigest(t, cfg, EngineBatch); got != want {
			t.Errorf("GOMAXPROCS=%d: production digest %s, scalar oracle %s", procs, got, want)
		}
	}
}

// progressOrderSink checks, as records arrive, that each record's trip day
// has already been announced through Cfg.Progress.
type progressOrderSink struct {
	t       *testing.T
	c       *Campaign
	days    []int // progress days in arrival order
	perDay  map[int]int
	checked int
}

func (s *progressOrderSink) progress(day int, _, _ float64) { s.days = append(s.days, day) }

// check files a record stamped at wall time ts under the trip day of the
// last trace sample at or before it, and fails unless that day's progress
// mark came first.
func (s *progressOrderSink) check(ts time.Time) {
	simT := ts.Sub(sim.TripStart).Seconds() + 1e-6 // undo the ns truncation of utc
	idx := s.c.Trace.At(simT)
	if idx < 0 {
		idx = 0
	}
	day := s.c.Trace.Samples[idx].Day
	if len(s.days) == 0 || s.days[len(s.days)-1] < day {
		s.t.Fatalf("record at %v (day %d) arrived before that day's progress (days so far %v)", ts, day, s.days)
	}
	s.perDay[day]++
	s.checked++
}

func (s *progressOrderSink) EmitThr(r dataset.ThroughputSample)    { s.check(r.TimeUTC) }
func (s *progressOrderSink) EmitRTT(r dataset.RTTSample)           { s.check(r.TimeUTC) }
func (s *progressOrderSink) EmitHandover(r dataset.HandoverRecord) { s.check(r.TimeUTC) }
func (s *progressOrderSink) EmitTest(r dataset.TestSummary)        { s.check(r.StartUTC) }
func (s *progressOrderSink) EmitApp(r dataset.AppRun)              { s.check(r.StartUTC) }
func (s *progressOrderSink) EmitPassive(dataset.PassiveSample)     {}
func (s *progressOrderSink) Flush() error                          { return nil }

// TestProgressPrecedesDayRecords runs a two-day campaign on the production
// engine, whose phones run ahead of the merge, and checks that the
// Cfg.Progress days arrive in order, each before the first record of that
// day's phases reaches the sink.
func TestProgressPrecedesDayRecords(t *testing.T) {
	if testing.Short() {
		t.Skip("two-day campaign is slow")
	}
	cfg := QuickConfig(23, 520) // day 1 ends near km 453
	cfg.EnableStatic = true
	cfg.EnableSpeedTest = true
	sink := &progressOrderSink{t: t, perDay: map[int]int{}}
	cfg.Progress = sink.progress
	c := New(cfg)
	sink.c = c
	c.RunTo(sink)
	if len(sink.days) != 2 || sink.days[0] != 1 || sink.days[1] != 2 {
		t.Fatalf("progress days = %v, want [1 2]", sink.days)
	}
	if sink.perDay[1] == 0 || sink.perDay[2] == 0 {
		t.Fatalf("records per day = %v; the run must cover both days", sink.perDay)
	}
}
