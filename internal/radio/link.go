package radio

import (
	"math"

	"wheels/internal/geo"
	"wheels/internal/sim"
)

// LinkState is the PHY snapshot for one step of a serving link. These are
// the KPIs XCAL logs every 500 ms and that Table 2 correlates against
// throughput.
type LinkState struct {
	Tech    Tech
	RSRPdBm float64 // primary cell RSRP
	SINRdB  float64
	MCS     int     // primary cell MCS
	BLER    float64 // primary cell residual BLER
	CCDown  int     // aggregated component carriers, downlink
	CCUp    int
	Blocked bool    // mmWave NLOS / deep-fade state
	CapDL   float64 // available PHY-layer rate for this UE, bits/s
	CapUL   float64
}

// Need says which outputs of a link step its caller reads. A step always
// writes Tech, RSRPdBm, Blocked, CCDown and CCUp, and always makes every
// random draw in the same order, so a link's channel state evolves
// identically whatever its callers demand; Need only decides which of the
// derived outputs are computed. Fields outside the mask keep whatever value
// they held before the step.
type Need uint8

const (
	NeedDL  Need = 1 << iota // LinkState.CapDL
	NeedUL                   // LinkState.CapUL
	NeedKPI                  // LinkState.SINRdB, MCS and BLER

	NeedAll = NeedDL | NeedUL | NeedKPI
)

// NeedCap returns the need bit of the capacity in direction dir.
func NeedCap(dir Direction) Need {
	if dir == Uplink {
		return NeedUL
	}
	return NeedDL
}

// Link models the radio link between a UE and one serving cell of a given
// technology: deterministic path loss plus correlated shadowing,
// interference, cell load, and (for mmWave) LOS/NLOS blockage. A Link is
// created per camped cell and stepped as the vehicle moves.
type Link struct {
	Op   Operator
	Tech Tech
	Band BandConfig

	// The correlated processes live by value inside the Link (not behind
	// pointers), so one link's whole mutable channel state sits in a single
	// contiguous block instead of per-process heap cells.
	shadow  sim.GaussMarkov // log-normal shadowing, dB
	interf  sim.GaussMarkov // interference-over-noise excursions, dB
	load    sim.GaussMarkov // fraction of cell resources available to us
	caJit   sim.GaussMarkov // carrier-aggregation availability jitter
	blocked sim.MarkovChain // 0 = clear, 1 = blocked
	congest sim.MarkovChain // 0 = normal, 1 = congested cell
	rng     *sim.RNG
	share   float64 // current load share, updated each Step

	inCongest     bool
	congestFactor float64

	// Per-band invariants hoisted to construction time. The tick loop used
	// to re-derive all three every Step — two constant-argument Log10 calls
	// inside eirpDBm/fsplDB plus the beam-gain switch — millions of times
	// over a drive for values that never change while the link exists.
	eirp     float64 // eirpDBm(Band)
	beamGain float64 // BeamGainDB(Op, Tech)
	fsplRef  float64 // fsplDB(refDistKm, Band.FreqGHz)

	// blockHolds memo: the vehicle speed is constant between trace samples
	// (~50 ticks), so the Exp inside blockHolds is recomputed only when mph
	// actually changes. The cached values are exactly what blockHolds would
	// return, so results are bit-identical with or without the memo.
	bhMPH   float64
	bhClear float64
	bhBlock float64
	bhInit  bool
}

// linkTuning collects the model constants in one place.
const (
	noiseFloorDBm = -121.0 // interference-limited SINR reference
	sinrMaxDB     = 28.0
	sinrMinDB     = -10.0
	shadowSigmaDB = 5.5
	shadowTauSec  = 18.0
)

// SINR-rail memos: a clamped SINR always maps through the very same
// functions, so MCSForSINR and the BLER logistic's Exp at the two rails are
// computed once, by those functions, and are bit-identical by construction.
var (
	mcsRailLo = MCSForSINR(sinrMinDB)
	mcsRailHi = MCSForSINR(sinrMaxDB)
	blerExpLo = blerExp(sinrMinDB)
	blerExpHi = blerExp(sinrMaxDB)
)

// loadMean returns the mean fraction of cell capacity available to one UE in
// the given environment: urban cells are busier than highway cells. A
// stationary UE camped right under the site (the static baselines, facing
// the base station with an effectively dedicated mmWave beam) gets a much
// larger share than a UE contending from a moving vehicle.
func loadMean(road geo.RoadClass, mph float64) float64 {
	if mph < 2 {
		return 0.68
	}
	switch road {
	case geo.RoadCity:
		return 0.42
	case geo.RoadSuburban:
		return 0.50
	default:
		return 0.55
	}
}

// Congested-cell model: cells spend stretches of time heavily loaded by
// other users (the paper's driving throughput spends ~35% of samples below
// 5 Mbps even under good coverage). While congested, the UE's share of the
// cell collapses.
const (
	congestNormalHoldSec = 90.0
	congestHoldSec       = 46.0
)

// Congestion severity is drawn per episode: most congested stretches leave
// a trickle, the worst leave almost nothing (T-Mobile's mid-band spends 40%
// of driving samples below 2 Mbps in Fig. 4 despite its 100 MHz carrier).
const (
	congestFactorMin = 0.004
	congestFactorMax = 0.20
)

// The log-uniform severity draw's bounds, evaluated once by the same
// math.Log the draw used to call on every congestion entry — identical
// bits, two fewer transcendentals per episode.
var (
	logCongestFactorMin = math.Log(congestFactorMin)
	logCongestFactorMax = math.Log(congestFactorMax)
)

// blockHolds returns the mean holding times (seconds) of the clear and
// blocked states as a function of vehicle speed. The stationary blocked
// fraction ~ block/(clear+block): ~2% at rest, ~19% for mmWave at highway
// speed — which is why mmWave is glorious in the static tests (Fig. 3a) and
// erratic on the move (Fig. 4).
func blockHolds(t Tech, mph float64) (clear, block float64) {
	if t == NRmmW {
		clear = 11 + 60*math.Exp(-mph/6)
		block = 2.6 * (0.3 + 0.7*min(1, mph/20))
		return clear, block
	}
	clear = 120 + 400*math.Exp(-mph/6)
	block = 4 * (0.3 + 0.7*min(1, mph/20))
	return clear, block
}

// pow22Frac is the fractional part math.Pow's Modf(2.2) produces. It must
// be computed in float64 arithmetic at run time: as an untyped constant
// expression 2.2-2.0 would be the exact rational 0.2, one ulp off the
// float64 value pow multiplies by.
var pow22Frac = 2.2 - math.Trunc(2.2)

// pow22 returns math.Pow(x, 2.2) bit-for-bit for the argument range the
// interference model uses (0 <= x < 1.13).
//
// math.pow computes Exp(yf*Log(x)) for the fractional exponent, then runs
// the integer part through a Frexp/renormalize/Ldexp squaring loop. Every
// step of that loop scales by exact powers of two, and IEEE-754
// round-to-nearest is scale-invariant while all intermediates stay normal,
// so for yi=2 the loop's round(t1·x1²)·2^k is bit-identical to the plain
// round(t1·(x·x)): collapsing it drops Modf, Frexp, Ldexp, and the special-
// case chain from the hot path. The intermediates here are safely normal —
// x ≥ 1e-100 gives x² ≥ 1e-200 and x^0.2 ≥ 1e-20, orders of magnitude
// above the 2^-1022 subnormal boundary — and smaller x falls back to
// math.Pow. TestPow22MatchesPow pins the equality over the full range.
func pow22(x float64) float64 {
	if x < 1e-100 {
		return math.Pow(x, 2.2)
	}
	return math.Exp(pow22Frac*math.Log(x)) * (x * x)
}

// interferencePenaltyDB grows toward the cell edge: the UE moves away from
// its serving cell and toward the interfering neighbors, collapsing SINR.
// distFrac is distance over cell range; beyond the nominal range the
// penalty keeps growing. A NaN distFrac gets the penalty of distance 0,
// like a negative one, so the rail shortcuts of clampedSINR agree with the
// unshortened clamp for every input.
func interferencePenaltyDB(distFrac float64) float64 {
	if !(distFrac >= 0) {
		distFrac = 0
	}
	// The cap crossover is at distFrac = (34/26)^(1/2.2) ≈ 1.1297. At 1.13
	// the true penalty is already 34.02, a margin thousands of ulps beyond
	// math.Pow's rounding error, so for any distFrac ≥ 1.13 the capped
	// branch below would return exactly 34 — skip the Pow outright. (Cells
	// past their nominal range are common: the UE camps on a far site
	// whenever the grid leaves a coverage gap.)
	if distFrac >= 1.13 {
		return 34
	}
	p := 26 * pow22(distFrac)
	if p > 34 {
		p = 34
	}
	return p
}

// clampedSINR returns the SINR s0 - pen clamped to [sinrMin, sinrMax],
// where s0 is the SINR before the interference penalty and pen is
// interferencePenaltyDB(distFrac). Three exact bounds decide a rail before
// the penalty's Log/Exp pair runs:
//
//   - pen ∈ [0, 34] by construction, so s0 ≤ sinrMin pins SINR low and
//     s0-34 ≥ sinrMax pins it high whatever pen is.
//   - For 0 ≤ x ≤ 1 (x = distFrac), fl(s0 - fl(26·fl(x·x))) ≥ sinrMax pins
//     it high. There Log(x) ≤ 0, so the Exp factor of pow22 is at most 1
//     and pow22(x) ≤ fl(x·x) (below 1e-100, math.Pow's x^2.2 is twenty
//     orders of magnitude under x²); IEEE rounding is monotone, so the
//     penalized SINR fl(s0 - fl(26·pow22(x))) is at or above the bound.
//     The float64 conversions keep each rounding the bound relies on: the
//     spec lets an implementation fuse s0 - 26·xx into one FMA otherwise.
//     Past x = 1 the Exp factor exceeds 1 and the bound would not hold.
//
// None of them estimates pen's value, so no bit can flip. A NaN distFrac
// takes the first two bounds with pen = 0 (interferencePenaltyDB treats it
// as distance 0) and never the third.
func clampedSINR(s0, distFrac float64) float64 {
	switch {
	case s0 <= sinrMinDB:
		return sinrMinDB
	case s0-34 >= sinrMaxDB:
		return sinrMaxDB
	case distFrac >= 0 && distFrac <= 1 && s0-float64(26*float64(distFrac*distFrac)) >= sinrMaxDB:
		return sinrMaxDB
	}
	sinr := s0 - interferencePenaltyDB(distFrac)
	if sinr > sinrMaxDB {
		sinr = sinrMaxDB
	}
	if sinr < sinrMinDB {
		sinr = sinrMinDB
	}
	return sinr
}

// NewLink returns a link for one (operator, technology) serving cell. The
// stream should be derived per cell so each camped cell gets independent
// shadowing and load.
func NewLink(rng *sim.RNG, op Operator, t Tech) *Link {
	l := &Link{}
	InitLink(l, rng, op, t)
	return l
}

// InitLink initializes a caller-owned Link in place — the by-value form of
// NewLink. ran.UE embeds its five per-technology links in one contiguous
// array through this. Stream derivation order is identical to NewLink's, so
// the two construction forms are draw-for-draw equivalent.
func InitLink(l *Link, rng *sim.RNG, op Operator, t Tech) {
	band := Bands(op, t)
	*l = Link{
		Op:       op,
		Tech:     t,
		Band:     band,
		eirp:     eirpDBm(band),
		beamGain: BeamGainDB(op, t),
		fsplRef:  fsplDB(refDistKm, band.FreqGHz),
		shadow:   sim.MakeGaussMarkov(rng.Stream("shadow"), 0, shadowSigmaDB, shadowTauSec),
		interf:   sim.MakeGaussMarkov(rng.Stream("interf"), 0, 2.5, 12),
		load:     sim.MakeGaussMarkov(rng.Stream("load"), 0.6, 0.15, 30),
		caJit:    sim.MakeGaussMarkov(rng.Stream("ca"), 0, 0.8, 25),
		rng:      rng.Stream("draws"),
	}
	// Blockage chain: state 0 clear, state 1 blocked. mmWave blocks often
	// (bodies, vehicles, foliage); sub-6 bands only in rare deep fades
	// (underpasses, terrain cuts).
	clearHold, blockHold := 120.0, 4.0
	if t == NRmmW {
		clearHold, blockHold = 11.0, 2.6
	}
	l.blocked = sim.MakeMarkovChain(rng.Stream("block"), 0,
		[]float64{clearHold, blockHold},
		[][]float64{{0, 1}, {1, 0}})
	l.congest = sim.MakeMarkovChain(rng.Stream("congest"), 0,
		[]float64{congestNormalHoldSec, congestHoldSec},
		[][]float64{{0, 1}, {1, 0}})
}

// Reset re-draws the correlated state, as happens when the UE hands over to
// a different cell whose shadowing and load are independent.
func (l *Link) Reset() {
	l.shadow.Reset()
	l.interf.Reset()
	l.load.Reset()
}

// StepInto advances the link by dt seconds with the UE at distKm from the
// cell, moving at mph over the given road class, writing the snapshot into
// caller-owned memory — the per-tick loops build the state in place
// (typically directly inside the UE snapshot) instead of copying a
// LinkState up the call chain — and computing only the outputs in need.
// With need == NeedAll every LinkState field is assigned, so no prior
// zeroing is needed. With no need the step skips the SINR chain (the
// interference penalty's Log/Exp, MCSForSINR and BLER); an undemanded
// capacity still makes its secondary-carrier draws but skips the spectral
// efficiency sum.
func (l *Link) StepInto(st *LinkState, dt, distKm, mph float64, road geo.RoadClass, need Need) {
	st.Tech = l.Tech

	// Blockage is speed-dependent: a stationary UE facing its base station
	// (the static tests) is almost never blocked, while driving sweeps
	// obstructions through the beam constantly. The holds only change when
	// the speed does (once per trace sample), so they are memoized.
	if !l.bhInit || mph != l.bhMPH {
		l.bhClear, l.bhBlock = blockHolds(l.Tech, mph)
		l.bhMPH, l.bhInit = mph, true
	}
	l.blocked.HoldMean[0], l.blocked.HoldMean[1] = l.bhClear, l.bhBlock
	blocked := l.blocked.Step(dt) == 1
	st.Blocked = blocked

	rsrp := meanRSRPFrom(l.eirp, l.beamGain, l.fsplRef, distKm, road) + l.shadow.Step(dt)
	if blocked {
		rsrp -= blockageLossDB
	}
	if rsrp > -55 {
		rsrp = -55
	}
	if rsrp < -140 {
		rsrp = -140 // below the UE's reporting floor
	}
	st.RSRPdBm = rsrp

	// The interference draw is made whatever the need; the SINR chain it
	// feeds is computed only when a capacity or the KPIs are read.
	s0 := rsrp - noiseFloorDBm - math.Abs(l.interf.Step(dt))
	if need != 0 {
		sinr := clampedSINR(s0, distKm/l.Band.RangeKm)
		st.SINRdB = sinr

		// A railed SINR maps through MCSForSINR and the BLER logistic at
		// exactly sinrMin/sinrMax, so both read memos computed once by the
		// same functions (the high rail alone is ~31% of app ticks).
		switch sinr {
		case sinrMinDB:
			st.MCS, st.BLER = mcsRailLo, blerFromExp(blerExpLo, mph)
		case sinrMaxDB:
			st.MCS, st.BLER = mcsRailHi, blerFromExp(blerExpHi, mph)
		default:
			st.MCS, st.BLER = MCSForSINR(sinr), BLER(sinr, mph)
		}
	}

	st.CCDown, st.CCUp = l.carriersWithJit(rsrp, l.caJit.Step(dt))

	// Cell load drifts toward the environment's mean as the vehicle moves;
	// congested cells collapse the UE's share outright.
	l.load.Mean = loadMean(road, mph)
	l.stepShare(dt, mph, l.load.Step(dt))

	if need&NeedDL != 0 {
		st.CapDL = l.capacity(st, Downlink)
	} else {
		l.skipCapacity(st.CCDown)
	}
	if need&NeedUL != 0 {
		st.CapUL = l.capacity(st, Uplink)
	} else {
		l.skipCapacity(st.CCUp)
	}
}

// stepShare folds the cell-load draw and the congestion chain into the UE's
// share of the cell for this tick. loadVal must be the value just produced
// by l.load.Step(dt), with Mean already set for this environment.
func (l *Link) stepShare(dt, mph, loadVal float64) {
	l.share = loadVal
	if congested := l.congest.Step(dt) == 1; congested {
		if !l.inCongest {
			// Entering a congested stretch: draw its severity, log-uniform
			// so the worst episodes starve the UE almost entirely.
			l.congestFactor = math.Exp(l.rng.Uniform(logCongestFactorMin, logCongestFactorMax))
		}
		l.inCongest = true
		factor := l.congestFactor
		if mph < 2 && factor < 0.1 {
			// Static tests were run at hand-picked spots facing the base
			// station; they see busy cells (the low-throughput static tail
			// of Fig. 3a) but never the starvation a moving UE deep in a
			// loaded macro cell experiences.
			factor = 0.1
		}
		l.share *= factor
	} else {
		l.inCongest = false
	}
	if l.share < 0.001 {
		l.share = 0.001
	}
	if l.share > 0.92 {
		l.share = 0.92
	}
}

// carriersWithJit picks the number of aggregated component carriers from
// link quality: secondary carriers drop off first as the UE approaches the
// edge. The caller supplies the availability-jitter draw (caJit.Step).
func (l *Link) carriersWithJit(rsrp, jit float64) (down, up int) {
	q := (rsrp + 118) / 45 // 0 at deep edge, 1 near the cell
	if l.Tech == NRmmW {
		// Beamformed mmWave carriers aggregate aggressively whenever the
		// beam holds at all.
		q = (rsrp + 125) / 30
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	down = 1 + int(math.Floor(q*float64(l.Band.MaxCCDown-1)+jit+0.5))
	if down < 1 {
		down = 1
	}
	if down > l.Band.MaxCCDown {
		down = l.Band.MaxCCDown
	}
	up = 1
	switch {
	case l.Op == Verizon && l.Tech != NRmmW:
		// Verizon rarely aggregates sub-6 uplink carriers (§5.5 CA
		// discussion); mmWave uplink does bond two carriers — that is how
		// the S21 reaches its 350 Mbps uplink peak (§B).
		up = 1
	case l.Op == Verizon:
		if q > 0.3 {
			up = 2
		}
	case l.Op == TMobile && (l.Tech == NRMid || l.Tech == NRLow):
		// T-Mobile often aggregates an LTE anchor in the uplink, but the
		// LTE carrier's bandwidth is small, so the second carrier barely
		// moves throughput — the root of the near-zero UL CA correlation.
		up = 2
	default:
		if l.Band.MaxCCUp > 1 && q > 0.45+0.2*jit {
			up = 2
		}
	}
	if up > l.Band.MaxCCUp && !(l.Op == TMobile && (l.Tech == NRMid || l.Tech == NRLow)) {
		up = l.Band.MaxCCUp
	}
	return down, up
}

// anchor is the NSA LTE anchor carrier contribution for 5G links: 20 MHz of
// LTE aggregated below the NR carrier (dual connectivity).
const anchorMHz = 20.0

// capacity converts the PHY snapshot into the bit rate available to this UE
// in one direction, accounting for per-carrier MCS dispersion, duty cycle,
// BLER, control overhead, and cell load.
func (l *Link) capacity(st *LinkState, dir Direction) float64 {
	b := &l.Band
	cc := st.CCDown
	duty := b.DutyDown
	maxSE := b.MaxSEDown
	if dir == Uplink {
		cc = st.CCUp
		duty = b.DutyUp
		maxSE = b.MaxSEUp
	}
	var bps float64
	for i := 0; i < cc; i++ {
		mcs := st.MCS
		mhz := b.CarrierMHz
		if i > 0 {
			// Secondary carriers see independent channel conditions; this
			// is why the primary cell's MCS is a weak proxy for total
			// throughput (§5.5 MCS discussion).
			mcs += int(l.rng.Normal(0, 4))
			if mcs < 0 {
				mcs = 0
			}
			if mcs > MaxMCS {
				mcs = MaxMCS
			}
			if dir == Uplink && l.Op == TMobile && (l.Tech == NRMid || l.Tech == NRLow) {
				// The aggregated uplink carrier is the LTE anchor.
				mhz = anchorMHz
			}
		}
		bps += mhz * 1e6 * duty * Efficiency(mcs, maxSE)
	}
	// NSA anchor bonus in the downlink for 5G links.
	if dir == Downlink && l.Tech.Is5G() {
		bps += anchorMHz * 1e6 * Efficiency(st.MCS, 5.5)
	}
	out := bps * (1 - st.BLER) * (1 - ctrlOverhead) * l.share
	if st.Blocked && l.Tech == NRmmW {
		out *= 0.04 // beam recovery scraps on a blocked mmWave link
	}
	return out
}

// skipCapacity makes the draws capacity would make over cc carriers — one
// MCS-dispersion draw per secondary carrier — without computing the rate,
// so an undemanded direction leaves the link's stream where capacity would.
func (l *Link) skipCapacity(cc int) {
	for i := 1; i < cc; i++ {
		l.rng.Normal(0, 4)
	}
}
