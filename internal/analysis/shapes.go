package analysis

// Shape invariants: the qualitative EXPERIMENTS.md claims — who wins, by
// roughly what factor, and which bands the medians land in — promoted to a
// production API. The long-campaign tests and the multi-seed replication
// fleet evaluate the same checks, so "does this dataset reproduce the
// paper's shapes?" has exactly one definition in the codebase.
//
// Every check is a pure function of the dataset. Sample-level values move
// with the seed, but these verdicts must not.

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"wheels/internal/radio"
)

// ShapeParams are the thresholds behind the shape invariants. The defaults
// are the bands calibrated for the paper's route; scenarios with different geometry (a downtown mmWave loop has far
// more handovers per mile than a cross-country drive) supply their own
// bounds where route-derived numbers leak into a check. Check names never
// change with the parameters — only the verdict thresholds do.
type ShapeParams struct {
	// StaticOverDriving is the minimum static/driving DL median ratio
	// (Fig. 3: the driving median collapses to a few percent of static).
	StaticOverDriving float64
	// HOsPerMileLo/Hi bound the per-test handovers-per-driven-mile median
	// (Fig. 11). The paper reports 2-3 over the full route; the default
	// band is widened to 1-4 for truncated segments.
	HOsPerMileLo float64
	HOsPerMileHi float64
	// TMobileLead is the minimum T-Mobile : (Verizon, AT&T) 5G-share ratio
	// (Fig. 2a: T-Mobile's 5G coverage dwarfs the other two)...
	TMobileLead float64
	// ...while VzAttBand bounds how far apart Verizon's and AT&T's shares
	// may sit while still counting as "the same band as each other".
	VzAttBand float64
}

// DefaultShapeParams returns the paper-route thresholds. Bands are widened
// relative to the full-campaign numbers in EXPERIMENTS.md so truncated
// (multi-hundred-km) runs still carry the claim.
func DefaultShapeParams() ShapeParams {
	return ShapeParams{
		StaticOverDriving: 5.0,
		HOsPerMileLo:      1.0,
		HOsPerMileHi:      4.0,
		TMobileLead:       1.5,
		VzAttBand:         2.5,
	}
}

// ShapeCheck names one invariant. Name is a stable identifier used in
// fleet checkpoints and EXPERIMENTS.md; renaming one invalidates recorded
// pass/fail vectors.
type ShapeCheck struct {
	Name string
	Desc string
}

// ShapeResult is one invariant evaluated against a dataset.
type ShapeResult struct {
	Name string
	Pass bool
	// Measured holds the quantities behind the verdict, unformatted: a
	// fleet evaluates every check on every seed and reads only Pass. By
	// check: static and driving DL medians (Mbps); driving DL and UL
	// medians (Mbps); the HOs/mile median and its test count; the T-Mobile,
	// Verizon and AT&T 5G shares; the Verizon and AT&T 5G shares. Unused
	// slots are zero.
	Measured [3]float64
}

// ShapeChecks lists every shape invariant in evaluation order, described
// with the default paper-route thresholds. The order and names are stable
// across runs: Accumulator.Summarize returns verdicts in exactly this order.
func ShapeChecks() []ShapeCheck {
	return ShapeChecksWith(DefaultShapeParams())
}

// ShapeChecksWith is ShapeChecks with the thresholds rendered from p. The
// names are identical for every p — parameters move verdict boundaries,
// never check identity — so fleets comparing scenarios with different
// bounds still line invariants up row by row.
func ShapeChecksWith(p ShapeParams) []ShapeCheck {
	var checks []ShapeCheck
	for _, op := range radio.Operators() {
		checks = append(checks, ShapeCheck{
			Name: "static-dwarfs-driving/" + op.Short(),
			Desc: fmt.Sprintf("Fig. 3: %s static DL median ≥ %.0f× driving DL median", op, p.StaticOverDriving),
		})
	}
	for _, op := range radio.Operators() {
		checks = append(checks, ShapeCheck{
			Name: "dl-exceeds-ul-driving/" + op.Short(),
			Desc: fmt.Sprintf("Fig. 3: %s driving DL median > driving UL median", op),
		})
	}
	for _, op := range radio.Operators() {
		checks = append(checks, ShapeCheck{
			Name: "hos-per-mile-band/" + op.Short(),
			Desc: fmt.Sprintf("Fig. 11: %s HOs/mile median in [%.0f, %.0f]", op, p.HOsPerMileLo, p.HOsPerMileHi),
		})
	}
	checks = append(checks,
		ShapeCheck{
			Name: "tmobile-5g-leads",
			Desc: fmt.Sprintf("Fig. 2a: T-Mobile 5G share ≥ %.1f× Verizon and AT&T", p.TMobileLead),
		},
		ShapeCheck{
			Name: "verizon-att-5g-band",
			Desc: fmt.Sprintf("Fig. 2a: Verizon and AT&T 5G shares within %.1f× of each other", p.VzAttBand),
		},
	)
	return checks
}

// shapeStats is the reduced view every check reads, indexed by operator.
// Accumulator.Summarize builds it from the headlines it returns.
type shapeStats [radio.NumOperators]opShapes

type opShapes struct {
	OpHeadline
	fiveGShare float64 // fraction of driving DL samples on 5G
	driveN     int     // driving DL sample count
	hpmN       int     // tests behind HOsPerMileMed
}

// evalShapes turns the reduced stats into verdicts under the thresholds in
// p, in ShapeChecks order.
func evalShapes(st *shapeStats, p ShapeParams) []ShapeResult {
	out := make([]ShapeResult, 0, 3*radio.NumOperators+2)
	add := func(name string, pass bool, measured ...float64) {
		r := ShapeResult{Name: name, Pass: pass}
		copy(r.Measured[:], measured)
		out = append(out, r)
	}
	for _, op := range radio.Operators() {
		dm, sm := st[op].DriveDLMedMbps, st[op].StaticDLMedMbps
		add("static-dwarfs-driving/"+op.Short(),
			st[op].driveN > 0 && sm >= p.StaticOverDriving*dm, sm, dm)
	}
	for _, op := range radio.Operators() {
		dl, ul := st[op].DriveDLMedMbps, st[op].DriveULMedMbps
		add("dl-exceeds-ul-driving/"+op.Short(),
			st[op].driveN > 0 && dl > ul, dl, ul)
	}
	for _, op := range radio.Operators() {
		m := st[op].HOsPerMileMed
		add("hos-per-mile-band/"+op.Short(),
			st[op].hpmN > 0 && m >= p.HOsPerMileLo && m <= p.HOsPerMileHi, m, float64(st[op].hpmN))
	}
	tm, vz, att := st[radio.TMobile].fiveGShare, st[radio.Verizon].fiveGShare, st[radio.ATT].fiveGShare
	add("tmobile-5g-leads",
		st[radio.TMobile].driveN > 0 && tm >= p.TMobileLead*vz && tm >= p.TMobileLead*att, tm, vz, att)
	lo, hi := vz, att
	if lo > hi {
		lo, hi = hi, lo
	}
	add("verizon-att-5g-band",
		st[radio.Verizon].driveN > 0 && st[radio.ATT].driveN > 0 && hi <= p.VzAttBand*lo, vz, att)
	return out
}

// quantiles reads the sorted-index quantiles the shape checks and the
// fleet summary report, without permuting the series it reads: where a
// tie decides the result's bits (see of), they depend on the series'
// order, which must stay the emission order for every read. Each read
// copies its series into one scratch buffer the value owns and selects
// there, so once the buffer has grown to the longest series a read
// allocates nothing. The zero value is ready to use.
type quantiles struct{ buf []float64 }

// median is of(v, 0.5).
func (s *quantiles) median(v []float64) float64 { return s.of(v, 0.5) }

// of returns the element sort.Float64s would place at index floor(q·n) of
// a copy of v (the last one for q ≥ 1), or 0 for an empty v — callers gate
// on sample counts, not NaN.
//
// It selects instead of sorting, and the result has the sort's bits. Under
// sort.Float64s's order (NaNs first, then <) elements that compare equal
// have identical bits unless they are zeros (+0 and -0) or NaNs (payloads),
// where the sort's tie order decides which one lands at the index. So a
// selected ±0 or NaN falls back to sorting a fresh copy, exactly as the
// result was defined.
func (s *quantiles) of(v []float64, q float64) float64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	k := int(q * float64(n))
	if k >= n {
		k = n - 1
	}
	// Copy the non-NaN values to the front: the sort puts the NaNs first,
	// so the element at k is the (k-nan)-th smallest of the rest.
	buf := slices.Grow(s.buf[:0], n)[:n]
	s.buf = buf
	m := 0
	for _, x := range v {
		buf[m] = x
		if x == x {
			m++
		}
	}
	if nan := n - m; k >= nan {
		if x := selectKth(buf[:m], k-nan); x != 0 {
			return x
		}
	}
	copy(buf, v)
	sort.Float64s(buf)
	return buf[k]
}

// selectKth returns the k-th smallest of a (0-based), which holds no NaN,
// permuting a: Hoare partitioning around a median-of-three pivot, keeping
// only the side that holds k. Ties split evenly between the sides, so runs
// of equal values cost no more than distinct ones. Past a round budget
// that well-mixed input rarely reaches, it sorts what is left instead, so
// no input is quadratic.
func selectKth(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for budget := 2 * bits.Len(uint(len(a))); hi > lo; budget-- {
		if budget == 0 {
			sort.Float64s(a[lo : hi+1])
			break
		}
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		p := a[mid]
		i, j := lo, hi
		for i <= j {
			for a[i] < p {
				i++
			}
			for p < a[j] {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// Now a[lo..j] ≤ p ≤ a[i..hi], and everything strictly between
		// j and i equals p.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return a[k]
		}
	}
	return a[k]
}
