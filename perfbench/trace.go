package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"time"

	"wheels/internal/dataset"
)

// Span is one timed interval of the traced run. Spans form a tree: the run,
// its seeds, and under each seed the campaign construction, the producer
// phases and the sink members.
type Span struct {
	Parent     int    // index of the parent span, -1 for the root
	Name       string // "run", "seed", "construct", "phase.<kind>", "sink.<member>"
	Key        string // seed spans: "<scenario>/<policy>/<seed>"
	Start, End int64  // nanoseconds since the recorder was created
}

// Recorder keeps every span of a traced run in memory; they are written out
// once the run ends, so tracing does no I/O while seeds run.
type Recorder struct {
	now   func() int64
	Spans []Span
}

// NewRecorder returns a recorder on the monotonic wall clock.
func NewRecorder() *Recorder {
	epoch := time.Now()
	return &Recorder{now: func() int64 { return int64(time.Since(epoch)) }}
}

// Now reads the recorder's clock.
func (r *Recorder) Now() int64 { return r.now() }

// Begin opens a span whose end is not known yet and returns its index.
func (r *Recorder) Begin(parent int, name, key string, start int64) int {
	r.Spans = append(r.Spans, Span{Parent: parent, Name: name, Key: key, Start: start})
	return len(r.Spans) - 1
}

// End closes a span opened by Begin.
func (r *Recorder) End(id int, end int64) { r.Spans[id].End = end }

// Add records a finished span and returns its index.
func (r *Recorder) Add(parent int, name string, start, end int64) int {
	r.Spans = append(r.Spans, Span{Parent: parent, Name: name, Start: start, End: end})
	return len(r.Spans) - 1
}

// SelfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children count once).
func (r *Recorder) SelfTimes() []int64 {
	kids := make([][]int, len(r.Spans))
	for i, s := range r.Spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(r.Spans))
	for i, s := range r.Spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return r.Spans[ks[a]].Start < r.Spans[ks[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(r.Spans[k].Start, reach), min(r.Spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// WriteCSV writes the spans as "id,parent,name,key,start_ns,end_ns" rows.
func (r *Recorder) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "id,parent,name,key,start_ns,end_ns")
	for i, s := range r.Spans {
		fmt.Fprintf(bw, "%d,%d,%s,%s,%d,%d\n", i, s.Parent, s.Name, s.Key, s.Start, s.End)
	}
	return bw.Flush()
}

// Table indexes of SinkCounts.Records, in the dataset's canonical order.
const (
	tabThr = iota
	tabRTT
	tabHandover
	tabTest
	tabApp
	tabPassive
	numTables
)

var tableNames = [numTables]string{"thr", "rtt", "handover", "test", "app", "passive"}

// SinkCounts counts the records that crossed a sink boundary.
type SinkCounts struct {
	Records [numTables]int
	Tests   map[dataset.TestKind]int // test summaries and app runs by kind
}

func (c *SinkCounts) add(o SinkCounts) {
	for i, n := range o.Records {
		c.Records[i] += n
	}
	for k, n := range o.Tests {
		if c.Tests == nil {
			c.Tests = map[dataset.TestKind]int{}
		}
		c.Tests[k] += n
	}
}

// PhaseClock is the outermost sink of a traced seed. It attributes the
// producer's time, read at the sink boundary from outside the program, to
// test phases: every interval between one sink call's return and the next
// call belongs to the test whose closing record (a TestSummary or AppRun)
// comes next, because a test's records always end with that record — the
// batch engine's bulk and RTT emits end each lane with its summary, and the
// fan-out phases replay each phone's records after all phones finished, a
// phone's summary last. Passive samples arrive as one block at the start of
// RunTo and close their interval as "passive"; static tests carry Static.
// The wall time inside each call is timed by the member wrappers.
type PhaseClock struct {
	rec     *Recorder
	seed    int // parent span of everything recorded here
	inner   dataset.Sink
	last    int64      // when the previous sink call returned
	pending [][2]int64 // producer intervals not yet closed by a test
	Counts  SinkCounts
}

// Member is one named Tee member of a traced seed's sink.
type Member struct {
	Name string
	Sink dataset.Sink
}

// NewPhaseClock returns the traced sink for one seed: a Tee of the members,
// each wrapped so its own time is recorded as "sink.<name>" spans under
// seed. Call Start just before handing it to RunTo.
func NewPhaseClock(rec *Recorder, seed int, members ...Member) *PhaseClock {
	p := &PhaseClock{rec: rec, seed: seed, Counts: SinkCounts{Tests: map[dataset.TestKind]int{}}}
	sinks := make([]dataset.Sink, len(members))
	for i, m := range members {
		sinks[i] = &timedSink{rec: rec, seed: seed, name: "sink." + m.Name, inner: m.Sink}
	}
	p.inner = dataset.Tee(sinks...)
	return p
}

// Start marks the producer's start; the first interval runs from here.
func (p *PhaseClock) Start() { p.last = p.rec.Now() }

// enter closes the producer interval that ends at this sink call.
func (p *PhaseClock) enter() {
	if t := p.rec.Now(); t > p.last {
		p.pending = append(p.pending, [2]int64{p.last, t})
	}
}

// leave marks the call's return; a non-empty phase attributes every pending
// producer interval to it.
func (p *PhaseClock) leave(phase string) {
	p.last = p.rec.Now()
	if phase == "" {
		return
	}
	for _, iv := range p.pending {
		p.rec.Add(p.seed, "phase."+phase, iv[0], iv[1])
	}
	p.pending = p.pending[:0]
}

// testPhase names the phase a test summary closes.
func testPhase(t dataset.TestSummary) string {
	switch {
	case t.Static:
		return "static"
	case t.Kind == dataset.TestBulkDL || t.Kind == dataset.TestBulkUL:
		return "bulk"
	default:
		return string(t.Kind)
	}
}

func (p *PhaseClock) EmitThr(r dataset.ThroughputSample) {
	p.EmitThrAll([]dataset.ThroughputSample{r})
}
func (p *PhaseClock) EmitRTT(r dataset.RTTSample) { p.EmitRTTAll([]dataset.RTTSample{r}) }
func (p *PhaseClock) EmitHandover(r dataset.HandoverRecord) {
	p.EmitHandoverAll([]dataset.HandoverRecord{r})
}
func (p *PhaseClock) EmitTest(r dataset.TestSummary) { p.EmitTestAll([]dataset.TestSummary{r}) }
func (p *PhaseClock) EmitApp(r dataset.AppRun)       { p.EmitAppAll([]dataset.AppRun{r}) }
func (p *PhaseClock) EmitPassive(r dataset.PassiveSample) {
	p.EmitPassiveAll([]dataset.PassiveSample{r})
}

func (p *PhaseClock) EmitThrAll(recs []dataset.ThroughputSample) {
	p.enter()
	dataset.EmitThrAll(p.inner, recs)
	p.Counts.Records[tabThr] += len(recs)
	p.leave("")
}
func (p *PhaseClock) EmitRTTAll(recs []dataset.RTTSample) {
	p.enter()
	dataset.EmitRTTAll(p.inner, recs)
	p.Counts.Records[tabRTT] += len(recs)
	p.leave("")
}
func (p *PhaseClock) EmitHandoverAll(recs []dataset.HandoverRecord) {
	p.enter()
	dataset.EmitHandoverAll(p.inner, recs)
	p.Counts.Records[tabHandover] += len(recs)
	p.leave("")
}
func (p *PhaseClock) EmitTestAll(recs []dataset.TestSummary) {
	p.enter()
	dataset.EmitTestAll(p.inner, recs)
	p.Counts.Records[tabTest] += len(recs)
	phase := ""
	for i, r := range recs {
		p.Counts.Tests[r.Kind]++
		if i == 0 {
			phase = testPhase(r)
		}
	}
	p.leave(phase)
}
func (p *PhaseClock) EmitAppAll(recs []dataset.AppRun) {
	p.enter()
	dataset.EmitAppAll(p.inner, recs)
	p.Counts.Records[tabApp] += len(recs)
	phase := ""
	for i, r := range recs {
		p.Counts.Tests[r.App]++
		if i == 0 {
			phase = string(r.App)
		}
	}
	p.leave(phase)
}
func (p *PhaseClock) EmitPassiveAll(recs []dataset.PassiveSample) {
	p.enter()
	dataset.EmitPassiveAll(p.inner, recs)
	p.Counts.Records[tabPassive] += len(recs)
	phase := ""
	if len(recs) > 0 {
		phase = "passive"
	}
	p.leave(phase)
}

// Flush flushes the members. Producer time after the last closing record
// (the end of RunTo's loop) stays unattributed.
func (p *PhaseClock) Flush() error {
	p.pending = p.pending[:0]
	return p.inner.Flush()
}

// timedSink records the wall time of every call into one Tee member as a
// "sink.<member>" span. It forwards batches through the dataset helpers, so
// the member keeps its own batch or per-record path.
type timedSink struct {
	rec   *Recorder
	seed  int
	name  string
	inner dataset.Sink
}

func (s *timedSink) time(start int64) { s.rec.Add(s.seed, s.name, start, s.rec.Now()) }

func (s *timedSink) EmitThr(r dataset.ThroughputSample) {
	t := s.rec.Now()
	s.inner.EmitThr(r)
	s.time(t)
}
func (s *timedSink) EmitRTT(r dataset.RTTSample) {
	t := s.rec.Now()
	s.inner.EmitRTT(r)
	s.time(t)
}
func (s *timedSink) EmitHandover(r dataset.HandoverRecord) {
	t := s.rec.Now()
	s.inner.EmitHandover(r)
	s.time(t)
}
func (s *timedSink) EmitTest(r dataset.TestSummary) {
	t := s.rec.Now()
	s.inner.EmitTest(r)
	s.time(t)
}
func (s *timedSink) EmitApp(r dataset.AppRun) {
	t := s.rec.Now()
	s.inner.EmitApp(r)
	s.time(t)
}
func (s *timedSink) EmitPassive(r dataset.PassiveSample) {
	t := s.rec.Now()
	s.inner.EmitPassive(r)
	s.time(t)
}
func (s *timedSink) EmitThrAll(recs []dataset.ThroughputSample) {
	t := s.rec.Now()
	dataset.EmitThrAll(s.inner, recs)
	s.time(t)
}
func (s *timedSink) EmitRTTAll(recs []dataset.RTTSample) {
	t := s.rec.Now()
	dataset.EmitRTTAll(s.inner, recs)
	s.time(t)
}
func (s *timedSink) EmitHandoverAll(recs []dataset.HandoverRecord) {
	t := s.rec.Now()
	dataset.EmitHandoverAll(s.inner, recs)
	s.time(t)
}
func (s *timedSink) EmitTestAll(recs []dataset.TestSummary) {
	t := s.rec.Now()
	dataset.EmitTestAll(s.inner, recs)
	s.time(t)
}
func (s *timedSink) EmitAppAll(recs []dataset.AppRun) {
	t := s.rec.Now()
	dataset.EmitAppAll(s.inner, recs)
	s.time(t)
}
func (s *timedSink) EmitPassiveAll(recs []dataset.PassiveSample) {
	t := s.rec.Now()
	dataset.EmitPassiveAll(s.inner, recs)
	s.time(t)
}
func (s *timedSink) Flush() error {
	t := s.rec.Now()
	err := s.inner.Flush()
	s.time(t)
	return err
}
