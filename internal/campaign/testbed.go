package campaign

import (
	"wheels/internal/deploy"
	"wheels/internal/geo"
	"wheels/internal/radio"
	"wheels/internal/ran"
	"wheels/internal/servers"
	"wheels/internal/sim"
	"wheels/internal/transport"
)

// Testbed is the seed-independent campaign substrate: the route geometry
// and the server registry, both pure functions of nothing (the route is the
// paper's fixed LA → Boston itinerary). Everything here is immutable after
// construction and safe to share read-only across goroutines, so a fleet
// builds one Testbed and hands it to every seed instead of reconstructing
// it per campaign. The seed-dependent parts —
// drive trace, deployments, UEs, latency models — are still built per
// campaign by NewWithTestbed; the deploy and radio calibration tables are
// package-level and already shared by construction.
type Testbed struct {
	Route *geo.Route
	Reg   *servers.Registry

	// Scenario names the scenario this testbed was compiled from ("" and
	// "paper" both mean the paper's itinerary). Campaigns don't read it;
	// the fleet threads it into checkpoint rows and report grouping.
	Scenario string

	// Density scales each operator's deployment away from the calibrated
	// tables. The zero value of an entry means the identity scaling, so a
	// hand-built Testbed{Route: ..., Reg: ...} behaves exactly as before.
	Density [radio.NumOperators]deploy.Density

	// Handover carries each operator's handover/elevation policy. The zero
	// value of an entry means the operator's default (paper-measured)
	// policy, mirroring Density, so testbeds built before policies existed
	// behave exactly as before.
	Handover [radio.NumOperators]ran.HandoverConfig

	// scratch parks the production engine's buffers between the campaigns
	// run on this testbed. It is the one mutable part, safe for concurrent
	// use; copies of the testbed share it, and a testbed built without a
	// constructor has none and simply reuses nothing across campaigns.
	scratch *scratchPool
}

// NewTestbed builds the paper's shared substrate once.
func NewTestbed() *Testbed { return NewTestbedFor(geo.NewRoute()) }

// NewTestbedFor builds the shared substrate over a compiled route: the
// route's edge-server registry, default densities and handover policies.
func NewTestbedFor(route *geo.Route) *Testbed {
	return &Testbed{Route: route, Reg: servers.NewRegistry(route), scratch: new(scratchPool)}
}

// densityFor resolves the operator's deployment density, mapping the zero
// value to the identity scaling.
func (tb *Testbed) densityFor(op radio.Operator) deploy.Density {
	if tb.Density[op] == (deploy.Density{}) {
		return deploy.DefaultDensity()
	}
	return tb.Density[op]
}

// handoverFor resolves the operator's handover policy, mapping the zero
// value to the operator's default. The returned pointer aliases either the
// testbed (immutable by contract) or the package-level default table, so it
// is safe to share across every UE of the fleet.
func (tb *Testbed) handoverFor(op radio.Operator) *ran.HandoverConfig {
	if tb.Handover[op] == (ran.HandoverConfig{}) {
		return ran.DefaultPolicy(op)
	}
	return &tb.Handover[op]
}

// PolicyDigest identifies the testbed's resolved handover-policy tuple: ""
// when every operator runs its default policy (so pre-policy checkpoints
// and reports keep their exact keys and bytes), otherwise the operators'
// config digests joined in operator order.
func (tb *Testbed) PolicyDigest() string {
	allDefault := true
	for _, op := range radio.Operators() {
		if !tb.handoverFor(op).IsDefault(op) {
			allDefault = false
			break
		}
	}
	if allDefault {
		return ""
	}
	var s string
	for _, op := range radio.Operators() {
		if s != "" {
			s += "+"
		}
		s += tb.handoverFor(op).Digest()
	}
	return s
}

// NewWithTestbed builds a campaign on a pre-built shared testbed. The
// resulting dataset is byte-identical to New's for the same Config: the
// testbed parts carry no randomness, and every RNG stream is drawn in the
// same order as New draws them.
func NewWithTestbed(cfg Config, tb *Testbed) *Campaign {
	rng := sim.NewRNG(cfg.Seed)
	c := &Campaign{
		Cfg:     cfg,
		Route:   tb.Route,
		Trace:   newTrace(tb.Route, rng, cfg),
		Reg:     tb.Reg,
		rng:     rng,
		scratch: tb.scratch,
	}
	depKm := deployKmBound(c.Trace, cfg)
	for _, op := range radio.Operators() {
		dep := deploy.NewUpToDensity(tb.Route, op, rng.Stream("deploy"), depKm, tb.densityFor(op))
		c.hoCfg[op] = tb.handoverFor(op)
		c.phones = append(c.phones, &phone{
			op:  op,
			dep: dep,
			ue:  ran.NewUEWithConfig(rng.Stream("test-phone"), dep, c.hoCfg[op]),
			lat: transport.NewLatencyModel(rng.Stream("latency"), op),
		})
	}
	return c
}
