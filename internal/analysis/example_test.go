package analysis

import (
	"fmt"

	"wheels/internal/campaign"
	"wheels/internal/dataset"
	"wheels/internal/radio"
)

// Single handovers dissected the way Figs. 11c and 12 do: a UE drives the
// first 120 km under backlogged downlink transfers, and for the first four
// handovers with two intervals of context on each side the example prints
// the 500 ms throughput timeline around it (T1..T5 in the paper's notation)
// with ΔT1, the drop during the handover interval, and ΔT2, the
// post-minus-pre change. The closing line counts what the rows show; Fig. 12
// (figures fig12) gives the distribution over every handover.
func Example_handoverAnatomy() {
	ds := campaign.New(campaign.QuickConfig(23, 120)).Run()

	// Samples per test, in time order (they are appended in order).
	byTest := map[int][]dataset.ThroughputSample{}
	for _, s := range ds.Thr {
		if !s.Static && s.Dir == radio.Downlink {
			byTest[s.TestID] = append(byTest[s.TestID], s)
		}
	}

	shown, dips, faster := 0, 0, 0
	labels := []string{"T1 (pre)  ", "T2 (pre)  ", "T3 (HO)   ", "T4 (post) ", "T5 (post) "}
	for _, t := range ds.Tests {
		if shown >= 4 || t.Kind != dataset.TestBulkDL || t.HOCount == 0 {
			continue
		}
		samples := byTest[t.ID]
		for i := 2; i < len(samples)-2; i++ {
			if samples[i].HOs == 0 {
				continue
			}
			shown++
			fmt.Printf("%s test %d: handover inside interval %d (tech %s -> %s)\n",
				t.Op, t.ID, i, samples[i-1].Tech, samples[i+1].Tech)
			fmt.Println("   interval   throughput")
			for j := -2; j <= 2; j++ {
				marker := " "
				if j == 0 {
					marker = "*"
				}
				fmt.Printf("  %s %s %8.1f Mbps\n", marker, labels[j+2], samples[i+j].Mbps())
			}
			dT1 := samples[i].Mbps() - (samples[i-1].Mbps()+samples[i+1].Mbps())/2
			dT2 := (samples[i+1].Mbps()+samples[i+2].Mbps())/2 - (samples[i-2].Mbps()+samples[i-1].Mbps())/2
			fmt.Printf("  dT1 (drop during HO) = %+.1f Mbps, dT2 (post - pre) = %+.1f Mbps\n\n", dT1, dT2)
			if dT1 < 0 {
				dips++
			}
			if dT2 > 0 {
				faster++
			}
			break
		}
	}
	fmt.Printf("%d of %d handovers dip throughput (dT1 < 0); after %d of %d the new cell is faster (dT2 > 0)\n",
		dips, shown, faster, shown)
	// Output:
	// Verizon test 1: handover inside interval 31 (tech LTE-A -> LTE)
	//    interval   throughput
	//     T1 (pre)        0.9 Mbps
	//     T2 (pre)        1.5 Mbps
	//   * T3 (HO)         1.4 Mbps
	//     T4 (post)       1.1 Mbps
	//     T5 (post)       1.1 Mbps
	//   dT1 (drop during HO) = +0.1 Mbps, dT2 (post - pre) = -0.1 Mbps
	//
	// AT&T test 3: handover inside interval 55 (tech LTE-A -> 5G-low)
	//    interval   throughput
	//     T1 (pre)        0.6 Mbps
	//     T2 (pre)        0.6 Mbps
	//   * T3 (HO)         0.7 Mbps
	//     T4 (post)       1.9 Mbps
	//     T5 (post)       2.1 Mbps
	//   dT1 (drop during HO) = -0.6 Mbps, dT2 (post - pre) = +1.4 Mbps
	//
	// AT&T test 12: handover inside interval 12 (tech LTE-A -> 5G-low)
	//    interval   throughput
	//     T1 (pre)        2.9 Mbps
	//     T2 (pre)        3.3 Mbps
	//   * T3 (HO)         6.3 Mbps
	//     T4 (post)       6.4 Mbps
	//     T5 (post)       9.7 Mbps
	//   dT1 (drop during HO) = +1.4 Mbps, dT2 (post - pre) = +5.0 Mbps
	//
	// Verizon test 19: handover inside interval 5 (tech 5G-low -> 5G-mmWave)
	//    interval   throughput
	//     T1 (pre)       50.7 Mbps
	//     T2 (pre)       49.0 Mbps
	//   * T3 (HO)         6.3 Mbps
	//     T4 (post)       3.2 Mbps
	//     T5 (post)       3.3 Mbps
	//   dT1 (drop during HO) = -19.8 Mbps, dT2 (post - pre) = -46.6 Mbps
	//
	// 2 of 4 handovers dip throughput (dT1 < 0); after 2 of 4 the new cell is faster (dT2 > 0)
}
