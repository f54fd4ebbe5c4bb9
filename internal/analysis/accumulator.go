package analysis

import (
	"wheels/internal/dataset"
	"wheels/internal/geo"
	"wheels/internal/radio"
)

// Accumulator is the streaming reduction of a campaign: a dataset.Sink that
// incrementally gathers everything the shape checks and the fleet's
// per-seed summary read — per-operator headline metric samples, the
// mile-weighted technology shares of Fig. 2a, and record counts — so a
// consumer can score a seed without ever materializing its dataset.
//
// Medians are exact, not sketched: the accumulator keeps the raw float
// values per metric (a few percent of the full record bytes) and selects
// each quantile at read time in a scratch copy it owns, which makes every
// output bit-identical to the same computation over a materialized
// Dataset. Records must all be emitted before the first read (Headline,
// ShapeResults, RoadSummaries, Fig2a), and reads share the scratch, so
// they must not run concurrently.
type Accumulator struct {
	seed   int64
	ops    []opAccum                     // indexed by operator
	roads  [geo.NumRoadClasses]roadAccum // driving samples split by road class
	n      Counts
	params ShapeParams
	q      quantiles
}

// opAccum holds one operator's metric samples. Slices append in emission
// order, so their contents equal the materialized path's filtered slices
// element for element.
type opAccum struct {
	driveDL  []float64 // Mbps, non-static downlink
	driveUL  []float64 // Mbps, non-static uplink
	staticDL []float64 // Mbps, static downlink
	rtt      []float64 // ms, non-static
	hpm      []float64 // handovers per driven mile, per qualifying test
	hoDur    []float64 // ms, all handovers
	qoe      []float64 // video QoE, non-static runs
	gaming   []float64 // gaming send bitrate Mbps, non-static runs

	fiveDrive             int // 5G samples among driveDL
	videoRuns, gamingRuns int
	techMiles             TechShare // non-static samples, mile-weighted
}

// Counts is the number of records seen per table.
type Counts struct {
	Thr, RTT, Tests, Handovers, Apps, Passive int
}

// OpHeadline is one operator's headline metrics.
type OpHeadline struct {
	DriveDLMedMbps  float64
	DriveULMedMbps  float64
	StaticDLMedMbps float64
	DriveRTTMedMs   float64
	FiveGMileShare  float64
	HighSpeedShare  float64
	HOsPerMileMed   float64
	HODurMedMs      float64
	VideoQoEMed     float64
	GamingMbpsMed   float64
	VideoRuns       int
	GamingRuns      int
}

// NewAccumulator returns an empty accumulator for the given campaign seed,
// evaluating shapes under the default paper-route thresholds.
func NewAccumulator(seed int64) *Accumulator {
	a := &Accumulator{seed: seed, ops: make([]opAccum, radio.NumOperators), params: DefaultShapeParams()}
	for i := range a.ops {
		a.ops[i].techMiles = TechShare{}
	}
	return a
}

// Seed returns the campaign seed the accumulator was created for.
func (a *Accumulator) Seed() int64 { return a.seed }

// SetShapeParams replaces the thresholds ShapeResults evaluates under.
// Reset does not touch them: a fleet worker pinned to one scenario sets
// them once and reuses the accumulator across seeds.
func (a *Accumulator) SetShapeParams(p ShapeParams) { a.params = p }

// Reset clears the accumulator for a new campaign with the given seed,
// keeping every metric slice's capacity. A fleet worker owns one
// accumulator and resets it between seeds, so the steady-state reduction
// allocates nothing once the slices have grown to a campaign's size.
func (a *Accumulator) Reset(seed int64) {
	a.seed = seed
	a.n = Counts{}
	for i := range a.ops {
		o := &a.ops[i]
		o.driveDL = o.driveDL[:0]
		o.driveUL = o.driveUL[:0]
		o.staticDL = o.staticDL[:0]
		o.rtt = o.rtt[:0]
		o.hpm = o.hpm[:0]
		o.hoDur = o.hoDur[:0]
		o.qoe = o.qoe[:0]
		o.gaming = o.gaming[:0]
		o.fiveDrive, o.videoRuns, o.gamingRuns = 0, 0, 0
		clear(o.techMiles)
	}
	for i := range a.roads {
		r := &a.roads[i]
		r.dl = r.dl[:0]
		r.ul = r.ul[:0]
		r.miles, r.fiveGMiles, r.samples, r.hos = 0, 0, 0, 0
	}
}

// Counts returns the per-table record counts seen so far.
func (a *Accumulator) Counts() Counts { return a.n }

func (a *Accumulator) EmitThr(s dataset.ThroughputSample) {
	a.n.Thr++
	op := &a.ops[s.Op]
	if !s.Static {
		op.techMiles[s.Tech] += sampleMiles(s.MPH)
		a.roadEmit(s.Road, s.Dir, s.Mbps(), s.MPH, s.Tech.Is5G(), s.HOs)
	}
	switch {
	case s.Dir == radio.Uplink && !s.Static:
		op.driveUL = append(op.driveUL, s.Mbps())
	case s.Dir == radio.Downlink && s.Static:
		op.staticDL = append(op.staticDL, s.Mbps())
	case s.Dir == radio.Downlink:
		op.driveDL = append(op.driveDL, s.Mbps())
		if s.Tech.Is5G() {
			op.fiveDrive++
		}
	}
}

func (a *Accumulator) EmitRTT(s dataset.RTTSample) {
	a.n.RTT++
	if !s.Static {
		op := &a.ops[s.Op]
		op.rtt = append(op.rtt, s.Ms)
	}
}

func (a *Accumulator) EmitHandover(h dataset.HandoverRecord) {
	a.n.Handovers++
	op := &a.ops[h.Op]
	op.hoDur = append(op.hoDur, h.DurSec*1000)
}

func (a *Accumulator) EmitTest(t dataset.TestSummary) {
	a.n.Tests++
	if !t.Static && t.Miles > 0.05 {
		op := &a.ops[t.Op]
		op.hpm = append(op.hpm, float64(t.HOCount)/t.Miles)
	}
}

func (a *Accumulator) EmitApp(r dataset.AppRun) {
	a.n.Apps++
	if r.Static {
		return
	}
	op := &a.ops[r.Op]
	switch r.App {
	case dataset.TestVideo:
		op.qoe = append(op.qoe, r.QoE)
		op.videoRuns++
	case dataset.TestGaming:
		op.gaming = append(op.gaming, r.SendBitrate)
		op.gamingRuns++
	}
}

func (a *Accumulator) EmitPassive(dataset.PassiveSample) { a.n.Passive++ }

// Batch emits reduce each record through the scalar methods: the
// accumulator's state transitions are strictly per-record, so the loop is
// equivalent by construction. Each batch still costs the Tee one dispatch
// here instead of one per record, and the loop body devirtualizes.
func (a *Accumulator) EmitThrAll(recs []dataset.ThroughputSample) {
	for i := range recs {
		a.EmitThr(recs[i])
	}
}

func (a *Accumulator) EmitRTTAll(recs []dataset.RTTSample) {
	for i := range recs {
		a.EmitRTT(recs[i])
	}
}

func (a *Accumulator) EmitHandoverAll(recs []dataset.HandoverRecord) {
	for i := range recs {
		a.EmitHandover(recs[i])
	}
}

func (a *Accumulator) EmitTestAll(recs []dataset.TestSummary) {
	for i := range recs {
		a.EmitTest(recs[i])
	}
}

func (a *Accumulator) EmitAppAll(recs []dataset.AppRun) {
	for i := range recs {
		a.EmitApp(recs[i])
	}
}

func (a *Accumulator) EmitPassiveAll(recs []dataset.PassiveSample) { a.n.Passive += len(recs) }

func (a *Accumulator) Flush() error { return nil }

// Fig2a returns the mile-weighted technology shares, identical to
// ComputeFig2a over the materialized dataset.
func (a *Accumulator) Fig2a() Fig2a {
	out := Fig2a{Share: map[radio.Operator]TechShare{}}
	for _, op := range radio.Operators() {
		out.Share[op] = normalize(a.ops[op].techMiles)
	}
	return out
}

// Headline returns the operator's headline metrics. Empty metrics are
// zero-valued, never NaN, exactly as the materialized reduction behaves.
// Once the scratch has grown to the longest series, it allocates nothing.
func (a *Accumulator) Headline(op radio.Operator) OpHeadline {
	o := &a.ops[op]
	fiveG, highSpeed := fiveGShares(o.techMiles)
	return OpHeadline{
		DriveDLMedMbps:  a.q.median(o.driveDL),
		DriveULMedMbps:  a.q.median(o.driveUL),
		StaticDLMedMbps: a.q.median(o.staticDL),
		DriveRTTMedMs:   a.q.median(o.rtt),
		FiveGMileShare:  fiveG,
		HighSpeedShare:  highSpeed,
		HOsPerMileMed:   a.q.median(o.hpm),
		HODurMedMs:      a.q.median(o.hoDur),
		VideoQoEMed:     a.q.median(o.qoe),
		GamingMbpsMed:   a.q.median(o.gaming),
		VideoRuns:       o.videoRuns,
		GamingRuns:      o.gamingRuns,
	}
}

// fiveGShares is normalize(w).FiveG() and normalize(w).HighSpeed() without
// building the normalized map: the same divisions summed in the same
// order, so the same bits.
func fiveGShares(w TechShare) (fiveG, highSpeed float64) {
	var total float64
	for _, t := range radio.Techs() {
		total += w[t]
	}
	share := func(t radio.Tech) float64 {
		if total == 0 {
			return w[t]
		}
		return w[t] / total
	}
	return share(radio.NRLow) + share(radio.NRMid) + share(radio.NRmmW), share(radio.NRMid) + share(radio.NRmmW)
}

// ShapeResults evaluates every shape invariant against the accumulated
// records, in ShapeChecks order.
func (a *Accumulator) ShapeResults() []ShapeResult {
	st := shapeStats{
		driveDLMed: map[radio.Operator]float64{},
		driveULMed: map[radio.Operator]float64{},
		staticDL:   map[radio.Operator]float64{},
		fiveGShare: map[radio.Operator]float64{},
		hpmMed:     map[radio.Operator]float64{},
		driveN:     map[radio.Operator]int{},
		hpmN:       map[radio.Operator]int{},
	}
	for _, op := range radio.Operators() {
		o := &a.ops[op]
		st.driveDLMed[op] = a.q.median(o.driveDL)
		st.driveULMed[op] = a.q.median(o.driveUL)
		st.staticDL[op] = a.q.median(o.staticDL)
		st.hpmMed[op] = a.q.median(o.hpm)
		st.driveN[op] = len(o.driveDL)
		st.hpmN[op] = len(o.hpm)
		if len(o.driveDL) > 0 {
			st.fiveGShare[op] = float64(o.fiveDrive) / float64(len(o.driveDL))
		}
	}
	return evalShapes(st, a.params)
}
