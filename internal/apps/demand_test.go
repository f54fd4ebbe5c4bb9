package apps_test

import (
	"math"
	"reflect"
	"testing"

	"wheels/internal/apps"
	"wheels/internal/apps/gaming"
	"wheels/internal/apps/offload"
	"wheels/internal/apps/video"
	"wheels/internal/radio"
	"wheels/internal/sim"
)

// driveNet is an honest synthetic path: capacities wander over three
// orders of magnitude, the RTT swings between edge and cross-country
// values, and the path drops out for a stretch now and then. It ignores
// need and returns every field on every tick.
type driveNet struct {
	rng     *sim.RNG
	dl, ul  float64
	rtt     float64
	outLeft float64 // seconds of outage remaining
}

func newDriveNet(seed int64) *driveNet {
	return &driveNet{rng: sim.NewRNG(seed).Stream("drive-net"), dl: 80e6, ul: 15e6, rtt: 60}
}

func (n *driveNet) Step(dt float64, _ radio.Need) apps.NetState {
	n.dl = math.Min(math.Max(n.dl*math.Exp(n.rng.Normal(0, 0.08)), 0.5e6), 900e6)
	n.ul = math.Min(math.Max(n.ul*math.Exp(n.rng.Normal(0, 0.08)), 0.1e6), 150e6)
	n.rtt = math.Min(math.Max(n.rtt+n.rng.Normal(0, 2), 12), 400)
	if n.outLeft > 0 {
		n.outLeft -= dt
	} else if n.rng.Bool(0.002) {
		n.outLeft = n.rng.Uniform(0.2, 3)
	}
	return apps.NetState{CapDLbps: n.dl, CapULbps: n.ul, RTTms: n.rtt, Outage: n.outLeft > 0}
}

// nanNet is a driveNet that returns NaN for every capacity the app did
// not demand, and counts the ticks demanding each direction.
type nanNet struct {
	driveNet
	ticks, dl, ul int
}

func (n *nanNet) Step(dt float64, need radio.Need) apps.NetState {
	st := n.driveNet.Step(dt, need)
	n.ticks++
	if need&radio.NeedDL == 0 {
		st.CapDLbps = math.NaN()
	} else {
		n.dl++
	}
	if need&radio.NeedUL == 0 {
		st.CapULbps = math.NaN()
	} else {
		n.ul++
	}
	return st
}

// TestAppsReadOnlyDemandedCapacity runs every app over an honest path and
// over the same path with every undemanded capacity replaced by NaN. The
// results must be equal: an app that read a capacity it did not declare
// would turn a result NaN or move it. The demand counts show each app
// leaves capacities undemanded on some ticks, so the check has teeth.
func TestAppsReadOnlyDemandedCapacity(t *testing.T) {
	type run struct {
		name   string
		app    func(apps.Net) any
		idleOK bool // the app demands nothing on some ticks
		ul     bool // the app reads the uplink
	}
	var runs []run
	for _, cfg := range []offload.Config{offload.ARConfig(), offload.CAVConfig()} {
		for _, compressed := range []bool{false, true} {
			runs = append(runs,
				run{cfg.Name + "-offload", func(n apps.Net) any { return offload.Run(n, cfg, compressed, true) }, true, true},
				run{cfg.Name + "-pipelined", func(n apps.Net) any { return offload.RunPipelined(n, cfg, compressed, false) }, true, true})
		}
	}
	runs = append(runs,
		run{"video", func(n apps.Net) any { return video.Run(n, 60) }, true, false},
		run{"gaming", func(n apps.Net) any { return gaming.Run(n, 30) }, false, false})

	for _, r := range runs {
		for seed := int64(1); seed <= 4; seed++ {
			honest := r.app(newDriveNet(seed))
			nn := &nanNet{driveNet: *newDriveNet(seed)}
			got := r.app(nn)
			if !reflect.DeepEqual(got, honest) {
				t.Errorf("%s seed %d: result with undemanded capacities NaN\n %+v\nwant\n %+v", r.name, seed, got, honest)
			}
			if nn.dl == 0 || (r.ul && nn.ul == 0) || (!r.ul && nn.ul != 0) {
				t.Errorf("%s seed %d: demanded DL on %d and UL on %d of %d ticks", r.name, seed, nn.dl, nn.ul, nn.ticks)
			}
			if idle := nn.ticks - nn.dl - nn.ul; r.idleOK && idle == 0 {
				t.Errorf("%s seed %d: every tick demanded a capacity", r.name, seed)
			}
		}
	}
}
