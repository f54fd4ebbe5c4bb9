package radio

import (
	"math"

	"wheels/internal/geo"
	"wheels/internal/sim"
)

// LinkBank steps the active serving links of a lane group through one tick
// in subsystem-major passes over flat slices: all blockage chains, then all
// shadowing draws, then all path-loss logs, and so on, instead of one lane's
// whole chain at a time. Each pass performs exactly the operations
// Link.StepInto performs, on the same state, in the same order WITHIN every
// lane and every RNG stream — only the interleaving ACROSS lanes changes,
// which the determinism contract makes free (streams are per-lane disjoint;
// see internal/sim/block.go). Output is therefore bit-identical to stepping
// each link scalar, which the differential harness and the bank property
// tests pin.
//
// The point of the pass structure is single-core latency hiding: one lane's
// step is a serial dependency chain (draw → shadow → RSRP → SINR → Exp →
// capacity), so its ~25 ns transcendentals and ziggurat draws stall the
// pipeline. Lanes are independent, and grouping their Log/Exp/NormFloat64
// calls back to back puts 3-4 independent chains inside the out-of-order
// window at once.
type LinkBank struct {
	links []*Link
	outs  []*LinkState
	dist  []float64
	mph   []float64
	road  []geo.RoadClass

	// Flat per-lane kernel rows (the SoA view of this tick's radio state).
	RSRP, SINR, BLER []float64
	MCS, CCDL, CCUL  []int
	Blocked          []bool

	// Subsystem-major process values and their gathered processes.
	shadow, interf, load, ca     []float64
	shadowP, interfP, loadP, caP []*sim.GaussMarkov

	// Transcendental staging rows.
	pen, lg, s0 []float64
}

// pen-row sentinels: penStage marks a lane whose penalty still needs the
// staged Log/Exp; the rail values mark lanes whose SINR is pinned to a
// clamp by the exact bounds in pass 4, so the penalty is never computed.
const (
	penStage  = -1.0
	penRailLo = -2.0
	penRailHi = -3.0
)

// SINR/MCS rail memos: a clamped SINR always maps through the very same
// functions, so the values are computed once by those functions.
var (
	mcsRailLo = MCSForSINR(sinrMinDB)
	mcsRailHi = MCSForSINR(sinrMaxDB)
)

// Reset empties the bank for a new tick, keeping all backing arrays.
func (b *LinkBank) Reset() {
	b.links = b.links[:0]
	b.outs = b.outs[:0]
	b.dist = b.dist[:0]
	b.mph = b.mph[:0]
	b.road = b.road[:0]
}

// Add enrolls one lane's serving link for this tick: the link to step, the
// LinkState to write, and the step's geometry. Lanes step in enrollment
// order.
func (b *LinkBank) Add(l *Link, out *LinkState, distKm, mph float64, road geo.RoadClass) {
	b.links = append(b.links, l)
	b.outs = append(b.outs, out)
	b.dist = append(b.dist, distKm)
	b.mph = append(b.mph, mph)
	b.road = append(b.road, road)
}

// Len returns the number of lanes enrolled for this tick.
func (b *LinkBank) Len() int { return len(b.links) }

// grow sizes the flat rows for n lanes, reusing capacity. The tick-steady
// case — same lane count as last tick — returns without touching the 18
// slice headers.
func (b *LinkBank) grow(n int) {
	if len(b.RSRP) == n {
		return
	}
	if cap(b.RSRP) < n {
		b.RSRP = make([]float64, n)
		b.SINR = make([]float64, n)
		b.BLER = make([]float64, n)
		b.MCS = make([]int, n)
		b.CCDL = make([]int, n)
		b.CCUL = make([]int, n)
		b.Blocked = make([]bool, n)
		b.shadow = make([]float64, n)
		b.interf = make([]float64, n)
		b.load = make([]float64, n)
		b.ca = make([]float64, n)
		b.shadowP = make([]*sim.GaussMarkov, n)
		b.interfP = make([]*sim.GaussMarkov, n)
		b.loadP = make([]*sim.GaussMarkov, n)
		b.caP = make([]*sim.GaussMarkov, n)
		b.pen = make([]float64, n)
		b.lg = make([]float64, n)
		b.s0 = make([]float64, n)
	}
	b.RSRP = b.RSRP[:n]
	b.SINR = b.SINR[:n]
	b.BLER = b.BLER[:n]
	b.MCS = b.MCS[:n]
	b.CCDL = b.CCDL[:n]
	b.CCUL = b.CCUL[:n]
	b.Blocked = b.Blocked[:n]
	b.shadow = b.shadow[:n]
	b.interf = b.interf[:n]
	b.load = b.load[:n]
	b.ca = b.ca[:n]
	b.shadowP = b.shadowP[:n]
	b.interfP = b.interfP[:n]
	b.loadP = b.loadP[:n]
	b.caP = b.caP[:n]
	b.pen = b.pen[:n]
	b.lg = b.lg[:n]
	b.s0 = b.s0[:n]
}

// The BLER logistic at the two SINR clamp rails. A clamped SINR hits these
// arguments exactly, so the Exp can be read from a package variable computed
// once by the very same math.Exp — bit-identical by construction. Cell-edge
// and near-cell driving pin SINR to the rails for long stretches, making
// this the most common Exp argument in a campaign.
var (
	blerExpLo = math.Exp((sinrMinDB - 3.0) / 2.5)
	blerExpHi = math.Exp((sinrMaxDB - 3.0) / 2.5)
)

// Step advances every enrolled link by dt, landing each lane's PHY snapshot
// in its LinkState and mirroring the KPI rows in the bank's flat slices.
// Steady-state operation is allocation-free (pinned by TestLinkBankAllocs).
func (b *LinkBank) Step(dt float64) {
	n := len(b.links)
	if n == 0 {
		return
	}
	b.grow(n)

	// Pass 1: blockage chains (stream "block"), and process gathering.
	for i, l := range b.links {
		mph := b.mph[i]
		if !l.bhInit || mph != l.bhMPH {
			l.bhClear, l.bhBlock = blockHolds(l.Tech, mph)
			l.bhMPH, l.bhInit = mph, true
		}
		l.blocked.HoldMean[0], l.blocked.HoldMean[1] = l.bhClear, l.bhBlock
		b.Blocked[i] = l.blocked.Step(dt) == 1
		b.shadowP[i], b.interfP[i] = &l.shadow, &l.interf
		b.loadP[i], b.caP[i] = &l.load, &l.caJit
	}

	// Pass 2: correlated-process draws, subsystem-major (streams "shadow",
	// "interf"; the load and carrier draws come later, at the same relative
	// position Link.StepInto gives them).
	sim.FillGM(b.shadow, b.shadowP, dt)
	sim.FillGM(b.interf, b.interfP, dt)

	// Pass 3: path loss. One Log per lane, staged so the calls are adjacent:
	// lg[i] = Log(clamp(dist)/refDist), and Log10 = Log · (1/Ln10) exactly
	// as math.Log10 composes it on platforms without an arch log10.
	for i := range b.lg {
		km := b.dist[i]
		if km < refDistKm {
			km = refDistKm
		}
		b.lg[i] = math.Log(km / refDistKm)
	}
	for i, l := range b.links {
		pl := l.fsplRef + 10*pathLossExponent(b.road[i])*(b.lg[i]*(1/math.Ln10))
		rsrp := l.eirp + l.beamGain - pl + b.shadow[i]
		if b.Blocked[i] {
			rsrp -= blockageLossDB
		}
		if rsrp > -55 {
			rsrp = -55
		}
		if rsrp < -140 {
			rsrp = -140 // below the UE's reporting floor
		}
		b.RSRP[i] = rsrp
	}

	// Pass 4: interference penalty — pow22 split into its Log and Exp
	// stages. pen[i] < 0 marks lanes whose penalty still needs the Exp.
	//
	// Two exact clamp skips first: the penalty is only ever consumed as
	// sinr = clamp(s0 - pen) with s0 = rsrp - noise - |interf| computed
	// here exactly as pass 5 computes it, and pen ∈ [0, 34] by
	// construction (26·pow22(df≥0) ≥ 0; capped at 34). So s0 ≤ sinrMin
	// pins sinr to the low rail and s0 - 34 ≥ sinrMax pins it to the high
	// rail no matter what pen is — the Log/Exp pair is skipped and pass 5
	// reads the rail directly. Both bounds are exact (no rounding slack
	// needed): they use only pen's hard range, never an approximation of
	// its value. penSkip marks those lanes so pass 5 knows sinr without
	// re-deriving it.
	for i, l := range b.links {
		s0 := b.RSRP[i] - noiseFloorDBm - math.Abs(b.interf[i])
		b.s0[i] = s0
		if s0 <= sinrMinDB {
			b.pen[i] = penRailLo
			continue
		}
		if s0-34 >= sinrMaxDB {
			b.pen[i] = penRailHi
			continue
		}
		df := b.dist[i] / l.Band.RangeKm
		if df < 0 {
			df = 0
		}
		switch {
		case df >= 1.13:
			// Past the cap crossover the capped branch returns exactly 34;
			// see interferencePenaltyDB.
			b.pen[i] = 34
		case df < 1e-100:
			p := 26 * pow22(df)
			if p > 34 {
				p = 34
			}
			b.pen[i] = p
		default:
			b.pen[i] = penStage
			b.lg[i] = df
		}
	}
	needExp := false
	for i := range b.pen {
		if b.pen[i] == penStage {
			b.lg[i] = math.Log(b.lg[i])
			needExp = true
		}
	}
	if needExp {
		for i := range b.pen {
			if b.pen[i] != penStage {
				continue
			}
			df := b.dist[i] / b.links[i].Band.RangeKm
			p := 26 * (math.Exp(pow22Frac*b.lg[i]) * (df * df))
			if p > 34 {
				p = 34
			}
			b.pen[i] = p
		}
	}

	// Pass 5: SINR, MCS, BLER. Rail-pinned lanes (pass 4) and clamped
	// lanes read the MCS memo; the subtraction below associates exactly as
	// the scalar (rsrp - noise - |interf|) - pen does, via the s0 row.
	for i := range b.links {
		sinr := b.s0[i] - b.pen[i]
		switch b.pen[i] {
		case penRailLo:
			sinr = sinrMinDB
		case penRailHi:
			sinr = sinrMaxDB
		default:
			if sinr > sinrMaxDB {
				sinr = sinrMaxDB
			}
			if sinr < sinrMinDB {
				sinr = sinrMinDB
			}
		}
		b.SINR[i] = sinr
		switch sinr {
		case sinrMinDB:
			b.MCS[i] = mcsRailLo
		case sinrMaxDB:
			b.MCS[i] = mcsRailHi
		default:
			b.MCS[i] = MCSForSINR(sinr)
		}
	}
	for i := range b.links {
		var e float64
		switch sinr := b.SINR[i]; sinr {
		case sinrMinDB:
			e = blerExpLo
		case sinrMaxDB:
			e = blerExpHi
		default:
			e = math.Exp((sinr - 3.0) / 2.5)
		}
		bl := 0.02 + 0.35/(1+e) + 0.0009*b.mph[i]
		if bl > 0.5 {
			bl = 0.5
		}
		b.BLER[i] = bl
	}

	// Pass 6: carrier aggregation (stream "ca" filled subsystem-major, then
	// the per-lane carrier arithmetic).
	sim.FillGM(b.ca, b.caP, dt)
	for i, l := range b.links {
		b.CCDL[i], b.CCUL[i] = l.carriersWithJit(b.RSRP[i], b.ca[i])
	}

	// Pass 7: cell load and congestion (streams "load", "congest", and the
	// severity draw on "draws" — which precedes the capacity draws on the
	// same stream, exactly as in Link.StepInto).
	for i, l := range b.links {
		l.load.Mean = loadMean(b.road[i], b.mph[i])
	}
	sim.FillGM(b.load, b.loadP, dt)
	for i, l := range b.links {
		l.stepShare(dt, b.mph[i], b.load[i])
	}

	// Pass 8: scatter the KPI rows into the snapshots and convert to
	// capacity (secondary-carrier draws on "draws", downlink before uplink).
	for i, l := range b.links {
		st := b.outs[i]
		st.Tech = l.Tech
		st.RSRPdBm = b.RSRP[i]
		st.SINRdB = b.SINR[i]
		st.MCS = b.MCS[i]
		st.BLER = b.BLER[i]
		st.CCDown = b.CCDL[i]
		st.CCUp = b.CCUL[i]
		st.Blocked = b.Blocked[i]
		st.CapDL = l.capacity(st, Downlink)
		st.CapUL = l.capacity(st, Uplink)
	}
}
