// Package apps holds the shared plumbing for the four "5G killer"
// applications the paper evaluates (§7): the network-path interface their
// simulations consume, and small helpers. The apps themselves live in the
// offload (AR/CAV), video (360° streaming), and gaming (cloud gaming)
// subpackages.
package apps

import (
	"sort"

	"wheels/internal/radio"
)

// NetState is the instantaneous end-to-end path condition an application
// experiences: capacity in both directions and the current RTT.
type NetState struct {
	CapDLbps float64
	CapULbps float64
	RTTms    float64
	Outage   bool
}

// Net produces the evolving path; the campaign adapts a UE + server
// selection into this interface, and tests use synthetic implementations.
//
// Step advances the path by dt seconds. need names the capacities the app
// reads from the returned state this tick (radio.NeedDL, radio.NeedUL);
// a capacity outside it may hold any value, so a Net is free to skip
// computing it. RTTms and Outage are always valid.
type Net interface {
	Step(dt float64, need radio.Need) NetState
}

// TickSec is the application simulation tick.
const TickSec = 0.005

// Median returns the median of the values (0 for an empty slice).
func Median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	if n := len(c); n%2 == 1 {
		return c[n/2]
	}
	n := len(c)
	return (c[n/2-1] + c[n/2]) / 2
}
