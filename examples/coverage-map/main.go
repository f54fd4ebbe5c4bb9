// Coverage-map: render the Fig. 1 comparison as ASCII strips — for each
// carrier, the technology the UE connects to along the LA → Boston route,
// as seen by (a) the passive handover-logger (idle traffic) and (b) the
// active view during backlogged downlink tests. One character per ~25 km:
//
//	.  LTE      -  LTE-A      l  5G-low      m  5G-mid      W  5G-mmWave
//	   (space: no service)
//
//	go run ./examples/coverage-map
package main

import (
	"fmt"

	"wheels/internal/deploy"
	"wheels/internal/geo"
	"wheels/internal/radio"
	"wheels/internal/ran"
	"wheels/internal/sim"
)

const binKm = 25.0

func symbol(t radio.Tech) byte {
	switch t {
	case radio.LTE:
		return '.'
	case radio.LTEA:
		return '-'
	case radio.NRLow:
		return 'l'
	case radio.NRMid:
		return 'm'
	case radio.NRmmW:
		return 'W'
	default:
		return '?'
	}
}

// strip drives a UE along the whole route with the given traffic profile
// and returns one symbol per bin (the technology served most of the bin).
func strip(route *geo.Route, dep *deploy.Deployment, tr ran.Traffic) []byte {
	ue := ran.NewUE(sim.NewRNG(23).Stream("map", tr.String()), dep)
	nbins := int(route.LengthKm()/binKm) + 1
	counts := make([]map[radio.Tech]int, nbins)
	svc := make([]int, nbins)
	tm := 0.0
	for km := 0.0; km < route.LengthKm(); km += 0.25 {
		snap := ue.Step(tm, 0.5, km, 60, route.RoadClassAt(km), route.TimezoneAt(km), tr)
		tm += 0.5
		b := int(km / binKm)
		if snap.Outage {
			continue
		}
		if counts[b] == nil {
			counts[b] = map[radio.Tech]int{}
		}
		counts[b][snap.Tech]++
		svc[b]++
	}
	out := make([]byte, nbins)
	for b := range out {
		if svc[b] == 0 {
			out[b] = ' '
			continue
		}
		best, bestN := radio.LTE, -1
		for tech, n := range counts[b] {
			if n > bestN {
				best, bestN = tech, n
			}
		}
		out[b] = symbol(best)
	}
	return out
}

func main() {
	route := geo.NewRoute()
	fmt.Println("Technology along LA -> Boston ( . LTE  - LTE-A  l 5G-low  m 5G-mid  W mmWave )")
	fmt.Println()

	// City mile-markers for orientation.
	marks := make([]byte, int(route.LengthKm()/binKm)+1)
	for i := range marks {
		marks[i] = ' '
	}
	for _, c := range route.Cities {
		for km := 0.0; km < route.LengthKm(); km += binKm / 2 {
			if cc, ok := route.CityAreaAt(km); ok && cc.Name == c.Name {
				marks[int(km/binKm)] = '^'
				break
			}
		}
	}
	fmt.Printf("cities:            %s\n", marks)
	fmt.Println("                   (LA, Las Vegas, SLC, Denver, Omaha, Chicago, Indy, Cleveland, Rochester, Boston)")
	fmt.Println()

	rng := sim.NewRNG(23)
	for _, op := range radio.Operators() {
		dep := deploy.New(route, op, rng.Stream("deploy"))
		fmt.Printf("%-9s passive: %s\n", op, strip(route, dep, ran.Idle))
		fmt.Printf("%-9s active:  %s\n\n", "", strip(route, dep, ran.BacklogDL))
	}
	fmt.Println("The passive rows under-report 5G badly (AT&T: none at all) — the")
	fmt.Println("operators only elevate a UE to 5G under real traffic (§4.1).")
}
