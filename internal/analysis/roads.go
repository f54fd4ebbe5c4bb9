package analysis

import (
	"wheels/internal/geo"
	"wheels/internal/radio"
)

// roadAccum gathers the driving samples of one road class across all
// operators: the policy-sweep report compares handover configs per road
// class (city / suburban / highway), so the accumulator splits the same
// throughput stream it already reads along the road axis too.
type roadAccum struct {
	miles      float64 // mile-weighted driving distance
	fiveGMiles float64 // miles served by any 5G tier
	samples    int
	hos        int       // handovers inside the samples' intervals
	dl         []float64 // Mbps, non-static downlink
	ul         []float64 // Mbps, non-static uplink
}

// RoadSummary is one road class's reduced metrics for a seed: the
// per-road-class axis of the policy-sweep report. Quantiles are exact
// (selected at read time) like every other accumulator output.
type RoadSummary struct {
	Miles      float64 `json:"miles"`
	Samples    int     `json:"samples"`
	HOsPerMile float64 `json:"hos_per_mile"`
	FiveGShare float64 `json:"five_g_share"` // mile-weighted 5G dwell
	DLMedMbps  float64 `json:"dl_med_mbps"`
	DLP25Mbps  float64 `json:"dl_p25_mbps"`
	DLP75Mbps  float64 `json:"dl_p75_mbps"`
	ULMedMbps  float64 `json:"ul_med_mbps"`
}

// roadEmit accumulates one non-static driving throughput sample into its
// road class bucket.
func (a *Accumulator) roadEmit(road geo.RoadClass, dir radio.Direction, mbps float64, mph float64, fiveG bool, hos int) {
	if road < 0 || int(road) >= geo.NumRoadClasses {
		return
	}
	r := &a.roads[road]
	m := sampleMiles(mph)
	r.miles += m
	if fiveG {
		r.fiveGMiles += m
	}
	r.samples++
	r.hos += hos
	if dir == radio.Uplink {
		r.ul = append(r.ul, mbps)
	} else {
		r.dl = append(r.dl, mbps)
	}
}

// RoadSummaries reduces the per-road-class buckets. Road classes with no
// samples return a zero summary. Once the scratch has grown to the longest
// series, it allocates nothing.
func (a *Accumulator) RoadSummaries() [geo.NumRoadClasses]RoadSummary {
	var out [geo.NumRoadClasses]RoadSummary
	for i := range a.roads {
		r := &a.roads[i]
		s := RoadSummary{
			Miles:     r.miles,
			Samples:   r.samples,
			DLMedMbps: a.q.median(r.dl),
			DLP25Mbps: a.q.of(r.dl, 0.25),
			DLP75Mbps: a.q.of(r.dl, 0.75),
			ULMedMbps: a.q.median(r.ul),
		}
		if r.miles > 0 {
			s.HOsPerMile = float64(r.hos) / r.miles
			s.FiveGShare = r.fiveGMiles / r.miles
		}
		out[i] = s
	}
	return out
}
