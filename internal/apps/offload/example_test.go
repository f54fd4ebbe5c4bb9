package offload_test

import (
	"fmt"

	"wheels/internal/apps"
	"wheels/internal/apps/offload"
	"wheels/internal/geo"
	"wheels/internal/radio"
	"wheels/internal/sim"
	"wheels/internal/transport"
)

// cityPath simulates one Verizon radio link while driving at city speed
// and composes it with a server's wire latency.
type cityPath struct {
	link   *radio.Link
	lat    *transport.LatencyModel
	wireMs float64
	distKm float64
}

func (p *cityPath) Step(dt float64, need radio.Need) apps.NetState {
	var st radio.LinkState
	p.link.StepInto(&st, dt, p.distKm, 25, geo.RoadCity, need)
	return apps.NetState{
		CapDLbps: st.CapDL,
		CapULbps: st.CapUL,
		RTTms:    p.lat.RTTms(dt, p.link.Tech, p.wireMs, 25),
	}
}

// What Wavelength-style edge servers buy the two uplink-centric apps (§7.1):
// a Verizon UE on a city street served by each radio technology in turn
// runs the AR and CAV offloading benchmarks against an in-city edge server
// (wire RTT 2 ms) and a remote cloud (wire RTT 45 ms). The closing line
// counts what the rows above it show.
func Example_edgeVsCloud() {
	rng := sim.NewRNG(23)
	newPath := func(label, clabel string, tech radio.Tech, srv string, wireMs float64) *cityPath {
		return &cityPath{
			link:   radio.NewLink(rng.Stream(label, tech.String(), srv), radio.Verizon, tech),
			lat:    transport.NewLatencyModel(rng.Stream(clabel, tech.String(), srv), radio.Verizon),
			wireMs: wireMs,
			distKm: 0.4 * radio.Bands(radio.Verizon, tech).RangeKm,
		}
	}
	techs := []radio.Tech{radio.LTEA, radio.NRMid, radio.NRmmW}
	edgeWins, cavMisses := 0, 0
	fmt.Println("Verizon AR/CAV offloading while driving in a city: edge vs cloud")
	fmt.Println("(median E2E ms / offloaded FPS / mAP for AR; E2E for CAV)")
	for _, tech := range techs {
		fmt.Printf("\n%s:\n", tech)
		var arMs [2]float64
		for i, srv := range []struct {
			name   string
			wireMs float64
		}{{"edge ", 2}, {"cloud", 45}} {
			ar := offload.Run(newPath("ar", "lat", tech, srv.name, srv.wireMs), offload.ARConfig(), true, true)
			cav := offload.Run(newPath("cav", "clat", tech, srv.name, srv.wireMs), offload.CAVConfig(), true, true)
			arMs[i] = ar.MedianE2EMs
			fmt.Printf("  %s  AR: %5.0f ms  %4.1f FPS  mAP %4.1f   |  CAV: %5.0f ms",
				srv.name, ar.MedianE2EMs, ar.OffloadFPS, ar.MAP, cav.MedianE2EMs)
			if cav.MedianE2EMs > 100 {
				fmt.Printf("  (misses the 100 ms budget)")
				cavMisses++
			}
			fmt.Println()
		}
		if arMs[0] < arMs[1] {
			edgeWins++
		}
	}
	fmt.Printf("\nedge cut AR E2E on %d of %d technologies; CAV misses 100 ms in %d of %d runs\n",
		edgeWins, len(techs), cavMisses, 2*len(techs))
	// Output:
	// Verizon AR/CAV offloading while driving in a city: edge vs cloud
	// (median E2E ms / offloaded FPS / mAP for AR; E2E for CAV)
	//
	// LTE-A:
	//   edge   AR:   185 ms   5.5 FPS  mAP 30.2   |  CAV:   290 ms  (misses the 100 ms budget)
	//   cloud  AR:   243 ms   1.9 FPS  mAP 27.2   |  CAV:   465 ms  (misses the 100 ms budget)
	//
	// 5G-mid:
	//   edge   AR:   312 ms   3.3 FPS  mAP 25.5   |  CAV:   400 ms  (misses the 100 ms budget)
	//   cloud  AR:   197 ms   2.2 FPS  mAP 26.9   |  CAV:   450 ms  (misses the 100 ms budget)
	//
	// 5G-mmWave:
	//   edge   AR:   129 ms   2.3 FPS  mAP 28.8   |  CAV:   215 ms  (misses the 100 ms budget)
	//   cloud  AR:   283 ms   3.5 FPS  mAP 26.4   |  CAV:   515 ms  (misses the 100 ms budget)
	//
	// edge cut AR E2E on 2 of 3 technologies; CAV misses 100 ms in 6 of 6 runs
}
