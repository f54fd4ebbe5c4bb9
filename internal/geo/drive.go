package geo

import (
	"wheels/internal/sim"
)

// Sample is one second of the drive trace.
type Sample struct {
	T    float64 // simulation time in seconds since sim.TripStart
	Km   float64 // cumulative route distance
	Pos  LatLon
	MPH  float64
	Road RoadClass
	Zone Timezone
	Day  int // 1-based trip day
}

// Trace is the 1 Hz drive trace for the whole trip. Samples are ordered by
// time; there are gaps between trip days (overnight stops).
type Trace struct {
	Route   *Route
	Samples []Sample
}

// dayStartSec returns the simulation time of 8:00 local on the given 1-based
// trip day, in the timezone at the day's starting position. Day 1 at 8:00
// PDT is simulation time zero (sim.TripStart).
func dayStartSec(day int, zone Timezone) float64 {
	utcHour := 8 - float64(zone.UTCOffsetHours()) // local 8:00 as UTC hour
	return float64(day-1)*86400 + (utcHour-15)*3600
}

// DriveLimited simulates the 8-day drive at 1 Hz and returns the trace. All
// randomness comes from the provided stream, so a given seed reproduces the
// same drive exactly. Sample generation stops early once the drive has
// covered kmLimit km and trailSec seconds of trace time have elapsed past
// the first sample at or beyond that distance. The returned samples are
// exactly a prefix of the full trip's trace — the generator draws the same
// random sequence in the same order, it just stops drawing — so consumers
// bounded to the limit observe an identical trace while a short campaign
// skips simulating the days it will never look at. kmLimit <= 0 means no
// limit (full trip).
func DriveLimited(r *Route, rng *sim.RNG, kmLimit, trailSec float64) *Trace {
	tr := &Trace{Route: r}
	// One Gauss–Markov process per road class, each on its own labeled
	// stream: streams are derived by label, not construction order, so the
	// draw sequences match the old map-ordered construction exactly. The
	// parameters come from the route's speed profile.
	var speed [3]*sim.GaussMarkov
	for class := range r.Speeds {
		p := r.Speeds[class]
		speed[class] = sim.NewGaussMarkov(rng.Stream("speed", RoadClass(class).String()), p.MeanMPH, p.SigmaMPH, p.TauSec)
	}
	cutT := 0.0
	limitHit := false
	// Km only ever advances across the trip, so one route cursor serves the
	// whole build without repeated leg searches.
	cur := r.Cursor()
	for day := 1; day <= r.Days(); day++ {
		startKm, endKm, err := r.DayRangeKm(day)
		if err != nil {
			panic(err) // unreachable: day iterates over the route's own days
		}
		t := dayStartSec(day, cur.TimezoneAt(startKm))
		km := startKm
		for km < endKm {
			// The first sample at or beyond the limit opens a trailSec
			// window, and the first sample past that window is the first
			// one dropped.
			if kmLimit > 0 && !limitHit && km >= kmLimit {
				limitHit = true
				cutT = t + trailSec
			}
			if limitHit && t > cutT {
				return tr
			}
			road := cur.RoadClassAt(km)
			p := r.Speeds[road]
			mph := speed[road].Step(1)
			if mph < p.LoMPH {
				mph = p.LoMPH
			}
			if mph > p.HiMPH {
				mph = p.HiMPH
			}
			// Occasional full stops in city traffic (lights, congestion).
			if road == RoadCity && rng.Bool(0.02) {
				mph = 0
			}
			tr.Samples = append(tr.Samples, Sample{
				T:    t,
				Km:   km,
				Pos:  cur.PosAt(km),
				MPH:  mph,
				Road: road,
				Zone: cur.TimezoneAt(km),
				Day:  day,
			})
			km += mph * KmPerMile / 3600
			t++
		}
	}
	return tr
}

// At returns the index of the last sample with T <= t, or -1 if t precedes
// the trace. Samples are 1 s apart within a day, so this is a binary search.
func (tr *Trace) At(t float64) int {
	lo, hi := 0, len(tr.Samples)
	for lo < hi {
		mid := (lo + hi) / 2
		if tr.Samples[mid].T <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// TraceCursor memoizes the last sample index so a caller advancing
// monotonically in time (a test adapter ticking at 20 ms, the campaign's
// cycle loop) resolves At in O(1) amortized instead of a binary search over
// the ~200k-sample trace per tick. Results are identical to Trace.At;
// backward jumps fall back to the binary search. Not safe for concurrent
// use; derive one per goroutine.
type TraceCursor struct {
	tr  *Trace
	idx int
}

// Cursor returns a new trace cursor positioned at the start of the trace.
func (tr *Trace) Cursor() *TraceCursor { return &TraceCursor{tr: tr} }

// ResetAt re-aims the cursor at tr, positioned by binary search at time t,
// so the first At call of a test starting mid-trace costs O(log n) rather
// than a linear walk from the trace start. Callers that embed a cursor by
// value (the per-phone test adapters) reset it this way at each test start.
func (c *TraceCursor) ResetAt(tr *Trace, t float64) {
	c.tr, c.idx = tr, 0
	if i := tr.At(t); i > 0 {
		c.idx = i
	}
}

// At returns the index of the last sample with T <= t, or -1 if t precedes
// the trace, exactly as Trace.At does.
func (c *TraceCursor) At(t float64) int {
	s := c.tr.Samples
	if len(s) == 0 || t < s[0].T {
		return -1
	}
	if t < s[c.idx].T {
		c.idx = c.tr.At(t)
		return c.idx
	}
	for c.idx+1 < len(s) && s[c.idx+1].T <= t {
		c.idx++
	}
	return c.idx
}

// AtKm returns the index of the first sample with Km >= km, or len(Samples)
// if km is beyond the trace. Km is nondecreasing across the whole trip, so
// this is a binary search.
func (tr *Trace) AtKm(km float64) int {
	lo, hi := 0, len(tr.Samples)
	for lo < hi {
		mid := (lo + hi) / 2
		if tr.Samples[mid].Km < km {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Slice returns the samples with T in [t0, t1).
func (tr *Trace) Slice(t0, t1 float64) []Sample {
	i := tr.At(t0)
	if i < 0 {
		i = 0
	}
	for i < len(tr.Samples) && tr.Samples[i].T < t0 {
		i++
	}
	j := i
	for j < len(tr.Samples) && tr.Samples[j].T < t1 {
		j++
	}
	return tr.Samples[i:j]
}

// MilesBetween returns the miles driven between simulation times t0 and t1.
func (tr *Trace) MilesBetween(t0, t1 float64) float64 {
	s := tr.Slice(t0, t1)
	if len(s) < 2 {
		return 0
	}
	return (s[len(s)-1].Km - s[0].Km) / KmPerMile
}
