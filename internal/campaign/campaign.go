// Package campaign orchestrates the full measurement campaign exactly as
// §3 describes it: three test phones (one per carrier) run bandwidth, RTT,
// and application tests in a round-robin loop while driving from LA to
// Boston; three more "handover-logger" phones passively log the serving
// technology with ping-only traffic for the whole trip; static baseline
// tests run in each major city. The output is the consolidated cross-layer
// dataset that package analysis turns into the paper's figures and tables.
package campaign

import (
	"sync"

	"wheels/internal/dataset"
	"wheels/internal/deploy"
	"wheels/internal/geo"
	"wheels/internal/radio"
	"wheels/internal/ran"
	"wheels/internal/servers"
	"wheels/internal/sim"
	"wheels/internal/transport"
)

// Engine names for Config.Engine.
const (
	// EngineScalar is the test oracle: it runs each scheduled phase on all
	// phones at once (one goroutine per phone, a barrier after every phase)
	// and each static battery phone after phone. Golden hashes are defined
	// by its output and may never be regenerated from the production engine.
	EngineScalar = "scalar"
	// EngineBatch is the production engine and the default: the per-phone
	// timeline engine, in which each phone runs the whole schedule on its
	// own goroutine and the records merge in schedule order. Output is
	// byte-identical to the scalar oracle's (enforced by the differential
	// tests).
	EngineBatch = "batch"
)

// Config controls the scope of a campaign run.
type Config struct {
	Seed int64

	// Engine selects the engine: EngineBatch (or "") runs the per-phone
	// timeline engine, EngineScalar the phase-barrier test oracle.
	Engine string

	VideoSec  float64 // one streaming session (§D.1: 180 s)
	GamingSec float64 // one gaming session

	EnableApps    bool // run the four killer apps
	EnablePassive bool // run the handover-logger phones
	EnableStatic  bool // run static city baselines
	// EnableSpeedTest adds a commercial-style 8-connection speed test to
	// each round-robin cycle, so Table 3's methodology gap (single remote
	// TCP connection vs parallel peak-seeking connections) can be measured
	// on identical radio conditions.
	EnableSpeedTest bool

	// KmLimit truncates the campaign to the first N km of the route
	// (0 = full trip). Used by tests and quick examples.
	KmLimit float64

	// RawLogDir, when set, makes every bulk test also write its raw
	// measurement files (XCAL .drm + app log) there, exactly as the real
	// testbed did.
	RawLogDir string

	// Progress, when non-nil, is called at the start of each trip day with
	// the day number and the route distance covered so far, from the
	// goroutine that called RunTo, before any record of that day's phases
	// reaches the sink.
	Progress func(day int, km, totalKm float64)
}

// DefaultConfig returns the paper's full methodology.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:            seed,
		VideoSec:        180,
		GamingSec:       60,
		EnableApps:      true,
		EnablePassive:   true,
		EnableStatic:    true,
		EnableSpeedTest: true,
	}
}

// QuickConfig is a reduced campaign for tests and examples: network tests
// only, over the first kmLimit km.
func QuickConfig(seed int64, kmLimit float64) Config {
	cfg := DefaultConfig(seed)
	cfg.EnableApps = false
	cfg.EnablePassive = false
	cfg.EnableStatic = false
	cfg.EnableSpeedTest = false
	cfg.KmLimit = kmLimit
	return cfg
}

// phone is one carrier's test phone: persistent UE state, its latency
// model, and the XCAL attachment implied by recording KPI rows. Its test
// adapter is reused from test to test; both engines run at most one test
// per phone at a time, so a phone never needs a second one.
type phone struct {
	op  radio.Operator
	dep *deploy.Deployment
	ue  *ran.UE
	lat *transport.LatencyModel
	a   adapter
}

// Campaign holds the full testbed for one continuous drive.
type Campaign struct {
	Cfg    Config
	Route  *geo.Route
	Trace  *geo.Trace
	Reg    *servers.Registry
	rng    *sim.RNG
	phones []*phone

	// hoCfg is the per-operator handover policy resolved from the testbed
	// (nil entries mean the default policy); the passive handover loggers
	// read it so every UE in the campaign runs the same policy.
	hoCfg [radio.NumOperators]*ran.HandoverConfig

	// sink receives every record as it is produced. Run wires a Collector
	// here; RunTo wires the caller's sink.
	sink   dataset.Sink
	nextID int

	// scratch is the testbed's pool of engine buffers (nil: none).
	scratch *scratchPool

	// fanOut's per-phone collectors, built on first use and reset per
	// phase, so the oracle stops allocating once they reach a phase's
	// working size.
	fanSinks []dataset.Collector
}

// engineBatch reports whether the production engine is selected, rejecting
// unknown engine names loudly rather than silently running scalar.
func (cfg Config) engineBatch() bool {
	switch cfg.Engine {
	case "", EngineBatch:
		return true
	case EngineScalar:
		return false
	default:
		panic("campaign: unknown engine " + cfg.Engine)
	}
}

// floorNeed is the radio need every step of the campaign makes at least.
// The production engine computes only what each tick reads; the scalar
// oracle evaluates every output on every tick, so the differential harness
// compares demand-driven stepping against full evaluation.
func (c *Campaign) floorNeed() radio.Need {
	if c.Cfg.engineBatch() {
		return 0
	}
	return radio.NeedAll
}

// traceTrailSec is how much trace time a KmLimit-bounded campaign keeps
// past the sample where the limit is reached. The cycle loop stops at the
// first sample at or beyond the limit, and no test or logger looks further
// ahead than one round-robin cycle (~600 s with apps enabled); an hour of
// trail is an order of magnitude of slack. Truncating the rest drops the
// dominant allocation of short campaigns — the full 8-day 1 Hz trace.
const traceTrailSec = 3600

// newTrace simulates the drive, bounded to the campaign's KmLimit (plus
// trail) when one is set. The generator stops drawing once the limit is
// reached (geo.DriveLimited), which both sheds the dominant allocation of
// short runs and skips simulating the days past the limit entirely; campaign
// and fleet runs over the same (seed, KmLimit) observe identical samples
// either way.
func newTrace(route *geo.Route, rng *sim.RNG, cfg Config) *geo.Trace {
	return geo.DriveLimited(route, rng.Stream("drive"), cfg.KmLimit, traceTrailSec)
}

// deployKmBound returns the route span deploy.NewUpToDensity must cover for a
// campaign over the given (already built) trace. Every availability query —
// UE steps, the static-battery site probe — takes its km from a trace
// sample, extrapolated forward by at most maxExtrapolateSec, so the trace's
// last sample plus a generous slack bounds them all; coverage past it is
// never read. Unbounded campaigns (no KmLimit) keep the full-route build.
func deployKmBound(trace *geo.Trace, cfg Config) float64 {
	if cfg.KmLimit <= 0 || len(trace.Samples) == 0 {
		return 0
	}
	return trace.Samples[len(trace.Samples)-1].Km + 1
}

// New builds the testbed: route, drive trace, three deployments, three test
// phones, and the server registry. Fleet callers running many seeds should
// build one Testbed and use NewWithTestbed so the seed-independent substrate
// is constructed once.
func New(cfg Config) *Campaign {
	return NewWithTestbed(cfg, NewTestbed())
}

// maxExtrapolateSec caps how far past a trace sample whereAt may extrapolate
// the vehicle position. Samples are 1 s apart within a day, so anything
// beyond this cap is an inter-day (overnight) gap.
const maxExtrapolateSec = 2.0

// whereCur is whereAt over a trace cursor. Simulation time advances
// monotonically within the schedule loop and within each test, so the
// cursor turns the per-tick binary search into an O(1) index bump. Cursors
// are not goroutine-safe: the schedule loop and each adapter own their own.
func (c *Campaign) whereCur(cur *geo.TraceCursor, t float64) geo.Sample {
	return c.whereAt(cur.At(t), t)
}

// whereAt interpolates the drive trace at simulation time t, given the index
// of the last sample at or before t. Within a day the position extrapolates
// from the last sample at its recorded speed; inside an overnight gap it
// clamps to the next day's first sample (the parked car resumes from where
// it stopped) rather than silently returning a stale mid-drive sample. Past
// the end of the trace the final sample is returned.
func (c *Campaign) whereAt(idx int, t float64) geo.Sample {
	if idx < 0 {
		return c.Trace.Samples[0]
	}
	s := c.Trace.Samples[idx]
	dt := t - s.T
	switch {
	case dt > 0 && dt <= maxExtrapolateSec:
		s.Km += s.MPH * geo.KmPerMile / 3600 * dt
	case dt > maxExtrapolateSec && idx+1 < len(c.Trace.Samples):
		return c.Trace.Samples[idx+1]
	}
	return s
}

// EndKm returns the route distance at which the campaign stops: the route's
// length, or Cfg.KmLimit when that is shorter.
func (c *Campaign) EndKm() float64 {
	end := c.Route.LengthKm()
	if c.Cfg.KmLimit > 0 && c.Cfg.KmLimit < end {
		end = c.Cfg.KmLimit
	}
	return end
}

// Run executes the campaign and returns the materialized dataset. It is
// RunTo into a Collector and exists for consumers that genuinely need the
// whole dataset at once (figures, what-if analyses); streaming consumers
// should use RunTo.
func (c *Campaign) Run() *dataset.Dataset {
	col := dataset.NewCollector(c.Cfg.Seed)
	c.RunTo(col)
	return col.Dataset()
}

// RunTo executes the campaign, emitting every record into sink as it is
// produced. Records of one table arrive in the same order Run appends them,
// so a Collector sink reproduces Run's dataset byte-for-byte. RunTo does not
// call sink.Flush — the sink's owner does, after all campaigns feeding it
// have finished.
func (c *Campaign) RunTo(sink dataset.Sink) {
	c.sink = sink
	sc := c.scratch.get(len(c.phones))
	c.plan(&sc.sd)
	if c.Cfg.engineBatch() {
		c.runTimeline(sc)
	} else {
		c.runScalar(&sc.sd)
	}
	c.scratch.put(sc)
}

// runScalar is the scalar oracle's walk over the schedule: the passive
// loggers, then every test phase on all phones at once through fanOut, and
// each static battery phone after phone straight into the sink.
func (c *Campaign) runScalar(sd *schedule) {
	if c.Cfg.EnablePassive {
		perOp := make([][]dataset.PassiveSample, len(c.phones))
		var wg sync.WaitGroup
		for i, ph := range c.phones {
			wg.Add(1)
			go func() {
				defer wg.Done()
				perOp[i] = c.runPassiveLogger(ph)
			}()
		}
		wg.Wait()
		for _, samples := range perOp {
			c.sink.EmitPassiveAll(samples)
		}
	}
	for k := range sd.phases {
		p := &sd.phases[k]
		switch p.kind {
		case phaseProgress:
			c.progress(sd, p)
		case phaseStatic:
			for i, ph := range c.phones {
				c.runPhase(c.sink, i, ph, sd, p)
			}
		default:
			c.fanOut(func(sink dataset.Sink, i int, ph *phone) { c.runPhase(sink, i, ph, sd, p) })
		}
	}
}

// fanOut runs one test phase on all phones concurrently, one goroutine per
// phone, and waits for all of them; results collect into per-phone
// Collector sinks and replay into the campaign sink in operator order.
func (c *Campaign) fanOut(run func(sink dataset.Sink, i int, ph *phone)) {
	if c.fanSinks == nil {
		c.fanSinks = make([]dataset.Collector, len(c.phones))
	}
	sinks := c.fanSinks
	for i := range sinks {
		sinks[i].Reset()
	}
	var wg sync.WaitGroup
	for i, ph := range c.phones {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(&sinks[i], i, ph)
		}()
	}
	wg.Wait()
	for i := range sinks {
		sinks[i].D.EmitTo(c.sink)
	}
}
