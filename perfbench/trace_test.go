package main

import (
	"testing"

	"wheels/internal/dataset"
)

// fakeClock is a hand-advanced clock for the recorder.
type fakeClock struct{ t int64 }

func (c *fakeClock) advance(d int64) { c.t += d }

func newFakeRecorder() (*Recorder, *fakeClock) {
	c := &fakeClock{}
	return &Recorder{now: func() int64 { return c.t }}, c
}

// costSink is a Tee member that takes a fixed time per call, batch or not.
type costSink struct {
	clock *fakeClock
	cost  int64
}

func (s *costSink) spend()                                   { s.clock.advance(s.cost) }
func (s *costSink) EmitThr(dataset.ThroughputSample)         { s.spend() }
func (s *costSink) EmitRTT(dataset.RTTSample)                { s.spend() }
func (s *costSink) EmitHandover(dataset.HandoverRecord)      { s.spend() }
func (s *costSink) EmitTest(dataset.TestSummary)             { s.spend() }
func (s *costSink) EmitApp(dataset.AppRun)                   { s.spend() }
func (s *costSink) EmitPassive(dataset.PassiveSample)        { s.spend() }
func (s *costSink) EmitThrAll([]dataset.ThroughputSample)    { s.spend() }
func (s *costSink) EmitRTTAll([]dataset.RTTSample)           { s.spend() }
func (s *costSink) EmitHandoverAll([]dataset.HandoverRecord) { s.spend() }
func (s *costSink) EmitTestAll([]dataset.TestSummary)        { s.spend() }
func (s *costSink) EmitAppAll([]dataset.AppRun)              { s.spend() }
func (s *costSink) EmitPassiveAll([]dataset.PassiveSample)   { s.spend() }
func (s *costSink) Flush() error                             { s.spend(); return nil }

// tracedSeed sets up one traced seed over two members costing 1 and 2 per
// call, so every sink call takes 3.
func tracedSeed() (*Recorder, *fakeClock, int, *PhaseClock) {
	rec, clock := newFakeRecorder()
	seed := rec.Begin(-1, "seed", "paper//1", rec.Now())
	clk := NewPhaseClock(rec, seed,
		Member{"accumulate", &costSink{clock: clock, cost: 1}},
		Member{"hash", &costSink{clock: clock, cost: 2}})
	clk.Start()
	return rec, clock, seed, clk
}

// totals sums span durations and self times by name.
func totals(rec *Recorder) (dur, self map[string]int64) {
	dur, self = map[string]int64{}, map[string]int64{}
	st := rec.SelfTimes()
	for i, s := range rec.Spans {
		dur[s.Name] += s.End - s.Start
		self[s.Name] += st[i]
	}
	return dur, self
}

func TestPhaseClockPassiveBlockAtStart(t *testing.T) {
	rec, clock, seed, clk := tracedSeed()
	clock.advance(50) // the three loggers run before anything is emitted
	for op := 0; op < 3; op++ {
		clk.EmitPassiveAll(make([]dataset.PassiveSample, 4))
	}
	clock.advance(7) // the first bulk phase
	clk.EmitThrAll(make([]dataset.ThroughputSample, 2))
	clk.EmitTestAll([]dataset.TestSummary{{Kind: dataset.TestBulkDL}})
	rec.End(seed, rec.Now())

	dur, _ := totals(rec)
	if dur["phase.passive"] != 50 || dur["phase.bulk"] != 7 {
		t.Errorf("passive %d bulk %d, want 50 and 7", dur["phase.passive"], dur["phase.bulk"])
	}
	if dur["sink.accumulate"] != 5 || dur["sink.hash"] != 10 {
		t.Errorf("sinks %d/%d, want 5/10 (five calls)", dur["sink.accumulate"], dur["sink.hash"])
	}
	if clk.Counts.Records[tabPassive] != 12 || clk.Counts.Records[tabThr] != 2 {
		t.Errorf("records %v", clk.Counts.Records)
	}
}

// TestPhaseClockBatchBulkPhase replays a batch-engine bulk phase: the
// lockstep kernel runs for all lanes, then each lane emits its throughput
// rows, handovers and summary.
func TestPhaseClockBatchBulkPhase(t *testing.T) {
	rec, clock, seed, clk := tracedSeed()
	clock.advance(200) // control + kernel for all three lanes
	for lane := 0; lane < 3; lane++ {
		clock.advance(4) // staging this lane's rows
		clk.EmitThrAll(make([]dataset.ThroughputSample, 10))
		clk.EmitHandoverAll(nil)
		clk.EmitTest(dataset.TestSummary{Kind: dataset.TestBulkUL})
	}
	clock.advance(30) // RTT phase
	for lane := 0; lane < 3; lane++ {
		clk.EmitRTTAll(make([]dataset.RTTSample, 5))
		clk.EmitTest(dataset.TestSummary{Kind: dataset.TestRTT})
	}
	rec.End(seed, rec.Now())

	dur, _ := totals(rec)
	if dur["phase.bulk"] != 212 || dur["phase.rtt"] != 30 {
		t.Errorf("bulk %d rtt %d, want 212 and 30", dur["phase.bulk"], dur["phase.rtt"])
	}
	if got := clk.Counts.Tests[dataset.TestBulkUL]; got != 3 {
		t.Errorf("%d bulk-ul tests, want 3", got)
	}
}

// TestPhaseClockFanOutReplay replays an app phase the way fanOut does: all
// phones compute first, then each phone's collector is replayed table by
// table, its AppRun after its handovers.
func TestPhaseClockFanOutReplay(t *testing.T) {
	rec, clock, seed, clk := tracedSeed()
	clock.advance(900) // three phones streaming video in parallel
	for phone := 0; phone < 3; phone++ {
		d := dataset.Dataset{
			Handovers: make([]dataset.HandoverRecord, 2),
			Apps:      []dataset.AppRun{{App: dataset.TestVideo}},
		}
		d.EmitTo(clk)
	}
	clock.advance(60) // the speed test, also fanned out
	for phone := 0; phone < 3; phone++ {
		d := dataset.Dataset{Tests: []dataset.TestSummary{{Kind: dataset.TestSpeed}}}
		d.EmitTo(clk)
	}
	rec.End(seed, rec.Now())

	dur, _ := totals(rec)
	if dur["phase.video"] != 900 || dur["phase.speedtest"] != 60 {
		t.Errorf("video %d speedtest %d, want 900 and 60", dur["phase.video"], dur["phase.speedtest"])
	}
	// EmitTo makes six table calls per phone, empty tables included.
	if calls := dur["sink.accumulate"]; calls != 36 {
		t.Errorf("%d accumulate calls, want 36", calls)
	}
	if clk.Counts.Tests[dataset.TestVideo] != 3 || clk.Counts.Records[tabHandover] != 6 {
		t.Errorf("counts %+v", clk.Counts)
	}
}

func TestPhaseClockStaticTests(t *testing.T) {
	rec, clock, seed, clk := tracedSeed()
	clock.advance(40) // a static bulk test in a city
	clk.EmitThrAll(make([]dataset.ThroughputSample, 3))
	clk.EmitTest(dataset.TestSummary{Kind: dataset.TestBulkDL, Static: true})
	clock.advance(10) // a static RTT test
	clk.EmitRTTAll(make([]dataset.RTTSample, 3))
	clk.EmitTest(dataset.TestSummary{Kind: dataset.TestRTT, Static: true})
	rec.End(seed, rec.Now())

	dur, _ := totals(rec)
	if dur["phase.static"] != 50 || dur["phase.bulk"] != 0 || dur["phase.rtt"] != 0 {
		t.Errorf("static %d bulk %d rtt %d, want 50, 0, 0", dur["phase.static"], dur["phase.bulk"], dur["phase.rtt"])
	}
}

// TestSelfTimeIsSpanMinusChildren checks self time on a traced seed, whose
// only unattributed time is the tail after the last closing record, and on
// a hand-built tree with overlapping and overhanging children.
func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	rec, clock, seed, clk := tracedSeed()
	clock.advance(100)
	clk.EmitTest(dataset.TestSummary{Kind: dataset.TestBulkDL})
	clock.advance(20) // the loop ends: no closing record follows
	if err := clk.Flush(); err != nil {
		t.Fatal(err)
	}
	rec.End(seed, rec.Now())

	dur, self := totals(rec)
	children := dur["phase.bulk"] + dur["sink.accumulate"] + dur["sink.hash"]
	if self["seed"] != dur["seed"]-children || self["seed"] != 20 {
		t.Errorf("seed self %d, want %d - %d = 20", self["seed"], dur["seed"], children)
	}
	for _, name := range []string{"phase.bulk", "sink.accumulate", "sink.hash"} {
		if self[name] != dur[name] {
			t.Errorf("%s is a leaf, self %d != duration %d", name, self[name], dur[name])
		}
	}

	r, _ := newFakeRecorder()
	root := r.Add(-1, "run", 0, 100)
	r.Add(root, "a", 10, 30)
	r.Add(root, "b", 20, 40)  // overlaps a: 30..40 is new
	r.Add(root, "c", 90, 120) // overhangs the parent: 90..100 counts
	if got := r.SelfTimes()[root]; got != 100-30-10 {
		t.Errorf("root self %d, want 60", got)
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 16)
	for i := range xs {
		xs[i] = float64(16 - i)
	}
	v, pct := tail(xs)
	if v != 6 || pct != 37.5 {
		t.Errorf("tail of 1..16 = %v at p%v, want 6 at p37.5 (ten values above)", v, pct)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q := quartiles(xs); q != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles %v", q)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q := quartiles([]float64{16, 1, 8, 2, 4}); q != [3]float64{1.5, 4, 12} {
		t.Errorf("quartiles %v", q)
	}
}
