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
	"sort"

	"wheels/internal/dataset"
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
	Name   string
	Pass   bool
	Detail string // the measured quantities behind the verdict
}

// ShapeChecks lists every shape invariant in evaluation order, described
// with the default paper-route thresholds. The order and names are stable
// across runs: CheckShapes returns results in exactly this order.
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

// shapeStats is the reduced view every check reads. The Accumulator builds
// it incrementally; CheckShapes builds it by replaying a dataset.
type shapeStats struct {
	driveDLMed map[radio.Operator]float64
	driveULMed map[radio.Operator]float64
	staticDL   map[radio.Operator]float64
	fiveGShare map[radio.Operator]float64 // fraction of driving DL samples on 5G
	hpmMed     map[radio.Operator]float64 // handovers per driven mile, median per test
	driveN     map[radio.Operator]int     // driving DL sample count
	hpmN       map[radio.Operator]int
}

// CheckShapes evaluates every shape invariant against the dataset and
// returns the results in ShapeChecks order, by replaying the dataset
// through an Accumulator — the materialized and streaming paths share one
// definition of every check. A dataset with no samples for a check fails
// that check (an empty campaign replicates nothing); it never panics, so
// reducers may feed it partial or empty per-seed data.
func CheckShapes(ds *dataset.Dataset) []ShapeResult {
	acc := NewAccumulator(ds.Seed)
	ds.EmitTo(acc)
	return acc.ShapeResults()
}

// evalShapes turns the reduced stats into verdicts under the thresholds in
// p, in ShapeChecks order.
func evalShapes(st shapeStats, p ShapeParams) []ShapeResult {
	var out []ShapeResult
	add := func(name string, pass bool, detail string) {
		out = append(out, ShapeResult{Name: name, Pass: pass, Detail: detail})
	}
	for _, op := range radio.Operators() {
		dm, sm := st.driveDLMed[op], st.staticDL[op]
		add("static-dwarfs-driving/"+op.Short(),
			st.driveN[op] > 0 && sm >= p.StaticOverDriving*dm,
			fmt.Sprintf("static DL median %.1f vs driving %.1f Mbps", sm, dm))
	}
	for _, op := range radio.Operators() {
		dl, ul := st.driveDLMed[op], st.driveULMed[op]
		add("dl-exceeds-ul-driving/"+op.Short(),
			st.driveN[op] > 0 && dl > ul,
			fmt.Sprintf("driving DL median %.1f vs UL %.1f Mbps", dl, ul))
	}
	for _, op := range radio.Operators() {
		m := st.hpmMed[op]
		add("hos-per-mile-band/"+op.Short(),
			st.hpmN[op] > 0 && m >= p.HOsPerMileLo && m <= p.HOsPerMileHi,
			fmt.Sprintf("HOs/mile median %.2f over %d tests", m, st.hpmN[op]))
	}
	tm, vz, att := st.fiveGShare[radio.TMobile], st.fiveGShare[radio.Verizon], st.fiveGShare[radio.ATT]
	add("tmobile-5g-leads",
		st.driveN[radio.TMobile] > 0 && tm >= p.TMobileLead*vz && tm >= p.TMobileLead*att,
		fmt.Sprintf("5G shares T-Mobile %.2f, Verizon %.2f, AT&T %.2f", tm, vz, att))
	lo, hi := vz, att
	if lo > hi {
		lo, hi = hi, lo
	}
	add("verizon-att-5g-band",
		st.driveN[radio.Verizon] > 0 && st.driveN[radio.ATT] > 0 && hi <= p.VzAttBand*lo,
		fmt.Sprintf("5G shares Verizon %.2f vs AT&T %.2f", vz, att))
	return out
}

// ShapeMedian is the sorted-middle median the shape checks use (0 for an
// empty slice — callers gate on sample counts, not NaN).
func ShapeMedian(v []float64) float64 {
	return ShapeQuantile(v, 0.5)
}

// ShapeQuantile is the same sorted-index quantile generalized: the element
// at floor(q·n), so ShapeQuantile(v, 0.5) is exactly ShapeMedian (0 for an
// empty slice).
func ShapeQuantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	i := int(q * float64(len(c)))
	if i >= len(c) {
		i = len(c) - 1
	}
	return c[i]
}
