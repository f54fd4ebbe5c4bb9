package radio

// BandConfig describes the spectrum a technology uses for one operator:
// carrier frequency, per-carrier bandwidth, how many component carriers the
// UE can aggregate in each direction, the TDD duty cycle, and the peak
// spectral efficiency the MIMO configuration supports.
//
// The numbers are modeled on the August 2022 deployments the paper measured:
// a Samsung S21 (Snapdragon 888) supporting 8 CC downlink / 2 CC uplink on
// mmWave with peak rates of 3.5 Gbps down and 350 Mbps up (Appendix B),
// T-Mobile's 100 MHz n41 mid-band, Verizon/AT&T's narrower early C-band,
// low-band DSS, and 20 MHz LTE carriers with up to 4-carrier aggregation on
// LTE-A.
type BandConfig struct {
	FreqGHz       float64 // carrier frequency, drives path loss
	CarrierMHz    float64 // bandwidth of one component carrier
	MaxCCDown     int     // max component carriers, downlink
	MaxCCUp       int     // max component carriers, uplink
	DutyDown      float64 // fraction of airtime for downlink (TDD; 1.0 for FDD DL)
	DutyUp        float64 // fraction of airtime for uplink
	MaxSEDown     float64 // peak spectral efficiency b/s/Hz (MIMO folded in)
	MaxSEUp       float64
	RangeKm       float64 // usable cell radius
	CellSpacingKm float64 // typical inter-site distance along a road
}

// Bands returns the band configuration for an operator and technology.
func Bands(op Operator, t Tech) BandConfig {
	switch t {
	case LTE:
		return BandConfig{
			FreqGHz: 1.9, CarrierMHz: 20, MaxCCDown: 1, MaxCCUp: 1,
			DutyDown: 1, DutyUp: 1, MaxSEDown: 5.5, MaxSEUp: 2.8,
			RangeKm: 4.5, CellSpacingKm: 7.0,
		}
	case LTEA:
		cc := 3
		if op == ATT {
			cc = 4 // AT&T's stronger LTE-A showing (Fig. 2a discussion)
		}
		return BandConfig{
			FreqGHz: 2.1, CarrierMHz: 20, MaxCCDown: cc, MaxCCUp: 2,
			DutyDown: 1, DutyUp: 1, MaxSEDown: 6.2, MaxSEUp: 3.0,
			RangeKm: 4.0, CellSpacingKm: 6.0,
		}
	case NRLow:
		// 600 MHz (T-Mobile n71) / 850 MHz DSS (Verizon, AT&T).
		f := 0.85
		mhz := 10.0
		if op == TMobile {
			f, mhz = 0.6, 15
		}
		return BandConfig{
			FreqGHz: f, CarrierMHz: mhz, MaxCCDown: 2, MaxCCUp: 1,
			DutyDown: 1, DutyUp: 1, MaxSEDown: 5.8, MaxSEUp: 2.8,
			RangeKm: 7.0, CellSpacingKm: 7.5,
		}
	case NRMid:
		// T-Mobile n41 (2.5 GHz, 100 MHz); Verizon/AT&T early C-band
		// (3.7 GHz, 60/40 MHz in Aug 2022).
		switch op {
		case TMobile:
			return BandConfig{
				FreqGHz: 2.5, CarrierMHz: 100, MaxCCDown: 1, MaxCCUp: 1,
				DutyDown: 0.74, DutyUp: 0.23, MaxSEDown: 11.0, MaxSEUp: 3.4,
				RangeKm: 2.8, CellSpacingKm: 3.2,
			}
		case Verizon:
			return BandConfig{
				FreqGHz: 3.7, CarrierMHz: 60, MaxCCDown: 1, MaxCCUp: 1,
				DutyDown: 0.74, DutyUp: 0.23, MaxSEDown: 9.0, MaxSEUp: 3.8,
				RangeKm: 2.2, CellSpacingKm: 2.8,
			}
		default: // ATT
			return BandConfig{
				FreqGHz: 3.7, CarrierMHz: 40, MaxCCDown: 1, MaxCCUp: 1,
				DutyDown: 0.74, DutyUp: 0.23, MaxSEDown: 9.0, MaxSEUp: 3.8,
				RangeKm: 2.2, CellSpacingKm: 2.8,
			}
		}
	default: // NRmmW
		// Verizon aggregates the S21's full 8 downlink carriers; the other
		// two carriers' thinner mmWave deployments aggregate fewer, which
		// is why Verizon's static mmWave medians dwarf AT&T's (Fig. 3a).
		cc := 8
		ccUp := 2
		switch op {
		case TMobile:
			cc = 6
		case ATT:
			// AT&T's mmWave uplink was nearly unusable in the measurements
			// (90% of driving UL samples below 0.5 Mbps, §5.2).
			cc, ccUp = 5, 1
		}
		return BandConfig{
			FreqGHz: 28, CarrierMHz: 100, MaxCCDown: cc, MaxCCUp: ccUp,
			DutyDown: 0.77, DutyUp: 0.25, MaxSEDown: 5.6, MaxSEUp: 7.0,
			RangeKm: 0.35, CellSpacingKm: 0.45,
		}
	}
}
