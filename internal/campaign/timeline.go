package campaign

import (
	"context"
	"runtime/pprof"
	"sync"

	"wheels/internal/batch"
	"wheels/internal/dataset"
)

// phoneLead bounds how far a phone may run ahead of the merge through its
// sample phases (bulk, RTT and static batteries, which emit per-sample
// rows): each phone owns this many buffers for them and blocks once all of
// them hold finished phases the merge has not reached yet, so the records
// in flight stay at O(phones × phoneLead) phases. The merge order, and so
// every byte, does not depend on it. The merge waits on the slowest phone
// for each phase, and a longer lead lets the others run on meanwhile; but
// every buffer grows to the largest phase it holds and stays parked with
// the testbed. Three was chosen by measurement (DESIGN.md §11): of the
// leads whose peak RSS stayed within 5% of two's on every perfbench
// workload, it keeps the most cores busy in RunTo, 1.85–1.91 of two against
// 1.82–1.87 at two. Four reads 1.89–1.92 but raised sweep-dump peak RSS by
// 7%, and eight 1.94–1.95 but by a fifth.
const phoneLead = 3

// summaryLead is the depth of each phone's second ring, which holds its
// summary phases (phaseKind.summaryOnly: the speed test and the app
// battery). Those phases emit one row per phone plus the test's handovers,
// so their buffers stay a few hundred bytes however deep the ring, while
// a deeper ring lets a phone run through the long app sessions while the
// merge waits on a slower one. Six was chosen by measurement (DESIGN.md
// §11).
const summaryLead = 6

// ring is one bounded ring of phase buffers between a phone and the
// merge: filled buffers travel to the merge on full and come back empty on
// free, first in first out.
type ring struct {
	full, free chan *dataset.Collector
}

// timeline is one phone's side of the per-phone engine: its sample-phase
// and summary-phase rings, and the phone's passive-logger samples (when
// enabled), which arrive once on passive.
type timeline struct {
	sample, summary ring
	passive         chan []dataset.PassiveSample
}

// ringFor returns the ring that buffers a phase of kind k.
func (tl *timeline) ringFor(k phaseKind) *ring {
	if k.summaryOnly() {
		return &tl.summary
	}
	return &tl.sample
}

// scratch is a campaign's reusable working memory: the phase schedule and,
// for the production engine, each phone's test-lane buffers and its phase
// buffers, phoneLead for the sample ring and then summaryLead for the
// summary ring.
type scratch struct {
	sd    schedule
	lanes []batch.Lane
	bufs  [][phoneLead + summaryLead]dataset.Collector
}

// scratchPool parks scratch between the campaigns run on one testbed, so
// a fleet's later seeds reuse the buffers its earlier seeds grew instead
// of regrowing them. It holds at most one scratch per campaign that ran
// concurrently, and it lives and dies with its testbed: nothing is parked
// in package state. A nil pool parks nothing.
type scratchPool struct {
	mu   sync.Mutex
	free []*scratch
}

func (p *scratchPool) get(phones int) *scratch {
	if p != nil {
		p.mu.Lock()
		defer p.mu.Unlock()
		if n := len(p.free); n > 0 {
			sc := p.free[n-1]
			p.free = p.free[:n-1]
			return sc
		}
	}
	return &scratch{lanes: make([]batch.Lane, phones), bufs: make([][phoneLead + summaryLead]dataset.Collector, phones)}
}

func (p *scratchPool) put(sc *scratch) {
	if p != nil {
		p.mu.Lock()
		p.free = append(p.free, sc)
		p.mu.Unlock()
	}
}

// runTimeline is the production engine (EngineBatch). Each phone runs the
// whole schedule on its own goroutine — its passive logger first, then
// every phase in schedule order — each phase into the next buffer of the
// bounded ring its kind maps to, while this goroutine merges: the passive
// block first, then each phase's buffers in operator order, each taken
// from the ring its kind maps to, firing Cfg.Progress at each progress
// mark and handing each drained buffer back to its ring. Phone and merge
// visit the phases in the same order, so each ring is first in first out
// and the merge order does not depend on which ring a phase went through.
//
// The output is a pure function of the schedule. A phone's simulation
// state (UE, links, latency model, label-derived RNG streams, test
// adapter) is touched by its goroutine alone; test ids come pre-allocated
// from the schedule; and the merge order is fixed. So goroutine
// scheduling cannot move a draw or a record, and the per-table record
// order is exactly the scalar oracle's.
func (c *Campaign) runTimeline(sc *scratch) {
	sd := &sc.sd
	tls := make([]timeline, len(c.phones))
	var wg sync.WaitGroup
	for i := range tls {
		c.phones[i].a.Lane = sc.lanes[i]
		tl := &tls[i]
		tl.sample = ring{full: make(chan *dataset.Collector, phoneLead), free: make(chan *dataset.Collector, phoneLead)}
		tl.summary = ring{full: make(chan *dataset.Collector, summaryLead), free: make(chan *dataset.Collector, summaryLead)}
		for k := range sc.bufs[i] {
			rg := &tl.sample
			if k >= phoneLead {
				rg = &tl.summary
			}
			rg.free <- &sc.bufs[i][k]
		}
		if c.Cfg.EnablePassive {
			tl.passive = make(chan []dataset.PassiveSample, 1)
		}
		wg.Add(1)
		goPhone(func() {
			defer wg.Done()
			c.runPhone(i, sd, tl)
		})
	}
	for i := range tls {
		if tls[i].passive != nil {
			c.sink.EmitPassiveAll(<-tls[i].passive)
		}
	}
	for k := range sd.phases {
		p := &sd.phases[k]
		if p.kind == phaseProgress {
			c.progress(sd, p)
			continue
		}
		for i := range tls {
			rg := tls[i].ringFor(p.kind)
			buf := <-rg.full
			buf.D.EmitTo(c.sink)
			buf.Reset()
			rg.free <- buf
		}
	}
	wg.Wait()
	// Hand the grown lane buffers back, dropping every pointer into this
	// campaign.
	for i, ph := range c.phones {
		sc.lanes[i] = ph.a.Lane.Recycle()
		ph.a = adapter{}
	}
}

// phoneJobs hands phone timelines to idle phone workers. A worker that
// finishes a timeline waits here for the next one instead of exiting, so a
// fleet running seed after seed reuses the same few goroutines rather than
// churning through new ones — the runtime keeps every goroutine it ever
// allocated in its goroutine table, and fresh ones would show up as live
// heap growing with the seed count. The pool grows to the peak number of
// phones running at once and holds no reference to a campaign between
// timelines.
var phoneJobs = make(chan func())

// goPhone runs f on an idle phone worker, starting a new worker if none
// is waiting.
func goPhone(f func()) {
	select {
	case phoneJobs <- f:
	default:
		go phoneWorker(f)
	}
}

func phoneWorker(f func()) {
	for ; ; f = <-phoneJobs {
		f()
	}
}

// runPhone runs phone i's whole timeline. With ProfilePhases set, each
// phase runs under its own `phase` and `op` pprof labels — one label scope
// per phase, never per tick.
func (c *Campaign) runPhone(i int, sd *schedule, tl *timeline) {
	ph := c.phones[i]
	if tl.passive != nil {
		if ProfilePhases {
			pprof.Do(context.Background(), pprof.Labels("phase", "passive", "op", ph.op.String()), func(context.Context) {
				tl.passive <- c.runPassiveLogger(ph)
			})
		} else {
			tl.passive <- c.runPassiveLogger(ph)
		}
	}
	for k := range sd.phases {
		p := &sd.phases[k]
		if p.kind == phaseProgress {
			continue
		}
		rg := tl.ringFor(p.kind)
		buf := <-rg.free
		if ProfilePhases {
			pprof.Do(context.Background(), pprof.Labels("phase", phaseLabels[p.kind], "op", ph.op.String()), func(context.Context) {
				c.runPhase(buf, i, ph, sd, p)
			})
		} else {
			c.runPhase(buf, i, ph, sd, p)
		}
		rg.full <- buf
	}
}
