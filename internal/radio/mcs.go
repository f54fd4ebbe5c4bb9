package radio

import "math"

// MaxMCS is the highest modulation-and-coding-scheme index (3GPP 256-QAM
// table, MCS 0–27 plus reserved; we use 0–28 as XCAL reports).
const MaxMCS = 28

// mcsEfficiency is the nominal spectral efficiency (b/s/Hz, single layer)
// per MCS index, following the shape of the 3GPP TS 38.214 256-QAM CQI/MCS
// tables: QPSK through 256-QAM with increasing code rate.
var mcsEfficiency = [MaxMCS + 1]float64{
	0.23, 0.31, 0.38, 0.49, 0.60, 0.74, 0.88, 1.03, 1.18, 1.33, // QPSK/16QAM
	1.48, 1.70, 1.91, 2.16, 2.41, 2.57, 2.73, 3.03, 3.32, 3.61, // 16/64QAM
	3.90, 4.21, 4.52, 4.82, 5.12, 5.55, 6.07, 6.67, 7.41, // 64/256QAM
}

// MCSForSINR maps link SINR (dB) to the MCS index the scheduler would pick.
// The mapping is the usual ~2 dB per CQI step with full rate at ~22 dB.
func MCSForSINR(sinrDB float64) int {
	mcs := int(math.Round((sinrDB + 7) * 28 / 29))
	if mcs < 0 {
		return 0
	}
	if mcs > MaxMCS {
		return MaxMCS
	}
	return mcs
}

// Efficiency returns the spectral efficiency of an MCS index, scaled so the
// top index reaches the band's peak efficiency (which folds in the MIMO rank
// the band supports).
func Efficiency(mcs int, maxSE float64) float64 {
	if mcs < 0 {
		mcs = 0
	}
	if mcs > MaxMCS {
		mcs = MaxMCS
	}
	return mcsEfficiency[mcs] * maxSE / mcsEfficiency[MaxMCS]
}

// BLER returns the residual block-error rate for a link: ~2% floor when the
// SINR comfortably exceeds the MCS requirement (HARQ working point), growing
// toward 50% when the scheduler's MCS outruns the channel or at high Doppler
// (vehicle speed), which is how driving degrades the PHY even under good
// RSRP.
func BLER(sinrDB, mph float64) float64 {
	return blerFromExp(blerExp(sinrDB), mph)
}

// blerExp is the logistic's Exp term of BLER at the given SINR.
func blerExp(sinrDB float64) float64 { return math.Exp((sinrDB - 3.0) / 2.5) }

// blerFromExp finishes BLER from its Exp term, so a memoized term yields
// exactly the bits BLER computes.
func blerFromExp(e, mph float64) float64 {
	b := 0.02 + 0.35/(1+e) + 0.0009*mph
	if b > 0.5 {
		return 0.5
	}
	return b
}

// ctrlOverhead is the fraction of PHY resources spent on control channels,
// reference signals, and retransmission overhead.
const ctrlOverhead = 0.20
