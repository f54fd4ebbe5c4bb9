package radio

import (
	"math"

	"wheels/internal/geo"
)

// refDistKm is the reference distance for the log-distance path-loss model.
// 25 m keeps a usable RSRP dynamic range even for mmWave cells whose whole
// service radius is ~350 m.
const refDistKm = 0.025

// pathLossExponent returns the log-distance exponent for a road environment.
// Urban clutter attenuates faster than open highway terrain.
func pathLossExponent(road geo.RoadClass) float64 {
	switch road {
	case geo.RoadCity:
		return 3.4
	case geo.RoadSuburban:
		return 3.1
	default:
		return 2.8
	}
}

// fsplDB returns free-space path loss in dB at distance km and frequency GHz.
func fsplDB(km, ghz float64) float64 {
	if km < 1e-4 {
		km = 1e-4
	}
	// FSPL(dB) = 20 log10(d_km) + 20 log10(f_GHz) + 92.45
	return 20*math.Log10(km) + 20*math.Log10(ghz) + 92.45
}

// PathLossDB returns the log-distance path loss in dB: free-space loss at
// the reference distance plus distance-dependent decay with the
// environment's exponent.
func PathLossDB(km, ghz float64, road geo.RoadClass) float64 {
	return pathLossFromRefDB(fsplDB(refDistKm, ghz), km, road)
}

// pathLossFromRefDB is PathLossDB with the frequency-dependent term — the
// free-space loss at the reference distance — already evaluated. Link
// hoists that term to construction time, leaving one Log10 per tick for the
// distance-dependent decay.
func pathLossFromRefDB(fsplRefDB, km float64, road geo.RoadClass) float64 {
	if km < refDistKm {
		km = refDistKm
	}
	n := pathLossExponent(road)
	return fsplRefDB + 10*n*math.Log10(km/refDistKm)
}

// edgeRSRPdBm is the RSRP the model targets at the nominal cell edge. The
// transmit EIRP of each band is derived from this target, which keeps RSRP
// in the realistic −65 … −120 dBm window across all bands without manual
// per-band transmit-power tuning.
const edgeRSRPdBm = -114

// mmWaveEdgeRSRPdBm is the (lower) edge target for mmWave: its short range
// compresses the path-loss dynamic range, so a lower edge target is needed
// for near-cell RSRP to reach the -70s/-80s dBm the paper reports.
const mmWaveEdgeRSRPdBm = -116

// eirpDBm returns the effective radiated power that puts RSRP at the edge
// target on the cell edge over suburban terrain.
func eirpDBm(b BandConfig) float64 {
	edge := float64(edgeRSRPdBm)
	if b.FreqGHz > 10 {
		edge = mmWaveEdgeRSRPdBm
	}
	return edge + PathLossDB(b.RangeKm, b.FreqGHz, geo.RoadSuburban)
}

// meanRSRPFrom returns the deterministic (pre-shadowing) RSRP in dBm at
// distance km from the serving cell, over the band's precomputed invariants
// (EIRP, beam gain, reference free-space loss).
func meanRSRPFrom(eirp, beamGainDB, fsplRefDB, km float64, road geo.RoadClass) float64 {
	return eirp + beamGainDB - pathLossFromRefDB(fsplRefDB, km, road)
}

// BeamGainDB returns the mmWave beamforming-gain offset for an operator.
// §5.5 (RSRP discussion): Verizon uses a smaller number of wider beams than
// AT&T, yielding lower gain and hence lower RSRP (−80 … −110 dBm observed
// vs. −70 … −90 dBm for AT&T). Non-mmWave bands have no offset.
func BeamGainDB(op Operator, t Tech) float64 {
	if t != NRmmW {
		return 0
	}
	switch op {
	case Verizon:
		return -9
	case ATT:
		return 0
	default:
		return -4
	}
}

// mmWave blockage adds this many dB when the link is NLOS.
const blockageLossDB = 22
