// Edge-vs-cloud: quantify what Wavelength-style edge servers buy the two
// uplink-centric killer apps (AR and CAV offloading), reproducing the §7.1
// conclusion that edge computing improves performance regardless of radio
// technology while the 100 ms CAV budget stays out of reach.
//
// The example drives a Verizon UE over a city street served by each radio
// technology in turn and runs the offloading benchmark against an in-city
// edge server (wire RTT ~2 ms) and a remote cloud (wire RTT ~45 ms).
//
//	go run ./examples/edge-vs-cloud
package main

import (
	"fmt"

	"wheels/internal/apps"
	"wheels/internal/apps/offload"
	"wheels/internal/geo"
	"wheels/internal/radio"
	"wheels/internal/sim"
	"wheels/internal/transport"
)

// drivePath simulates one radio link while driving at city speed and
// composes it with a server's wire latency.
type drivePath struct {
	link   *radio.Link
	lat    *transport.LatencyModel
	wireMs float64
	distKm float64
}

func (p *drivePath) Step(dt float64, need radio.Need) apps.NetState {
	var st radio.LinkState
	p.link.StepInto(&st, dt, p.distKm, 25, geo.RoadCity, need)
	return apps.NetState{
		CapDLbps: st.CapDL,
		CapULbps: st.CapUL,
		RTTms:    p.lat.RTTms(dt, p.link.Tech, p.wireMs, 25),
	}
}

func main() {
	rng := sim.NewRNG(23)
	fmt.Println("Verizon AR/CAV offloading while driving in a city: edge vs cloud")
	fmt.Println("(median E2E ms / offloaded FPS / mAP for AR; E2E for CAV)")
	for _, tech := range []radio.Tech{radio.LTEA, radio.NRMid, radio.NRmmW} {
		fmt.Printf("\n%s:\n", tech)
		for _, srv := range []struct {
			name   string
			wireMs float64
		}{{"edge ", 2}, {"cloud", 45}} {
			arPath := &drivePath{
				link:   radio.NewLink(rng.Stream("ar", tech.String(), srv.name), radio.Verizon, tech),
				lat:    transport.NewLatencyModel(rng.Stream("lat", tech.String(), srv.name), radio.Verizon),
				wireMs: srv.wireMs,
				distKm: 0.4 * radio.Bands(radio.Verizon, tech).RangeKm,
			}
			ar := offload.Run(arPath, offload.ARConfig(), true, true)
			cavPath := &drivePath{
				link:   radio.NewLink(rng.Stream("cav", tech.String(), srv.name), radio.Verizon, tech),
				lat:    transport.NewLatencyModel(rng.Stream("clat", tech.String(), srv.name), radio.Verizon),
				wireMs: srv.wireMs,
				distKm: 0.4 * radio.Bands(radio.Verizon, tech).RangeKm,
			}
			cav := offload.Run(cavPath, offload.CAVConfig(), true, true)
			fmt.Printf("  %s  AR: %5.0f ms  %4.1f FPS  mAP %4.1f   |  CAV: %5.0f ms",
				srv.name, ar.MedianE2EMs, ar.OffloadFPS, ar.MAP, cav.MedianE2EMs)
			if cav.MedianE2EMs > 100 {
				fmt.Printf("  (misses the 100 ms budget)")
			}
			fmt.Println()
		}
	}
	fmt.Println("\nEdge servers cut E2E latency on every technology, but the CAV")
	fmt.Println("pipeline still cannot reach 100 ms — the paper's §7.1.2 finding.")
}
