package fleet

import (
	"fmt"
	"strings"

	"wheels/internal/analysis"
	"wheels/internal/radio"
	"wheels/internal/report"
	"wheels/internal/sim"
)

// Report is the cross-seed verdict: for every shape invariant, how many
// seeds replicated it in each scenario; for every headline number, the band
// it moved in. Everything derives from the sorted Summaries slice, so the
// rendered output is independent of worker scheduling and checkpoint
// history.
type Report struct {
	StartSeed int64
	Seeds     int
	Scenarios []string      // sweep order; empty on pre-scenario reports
	Summaries []SeedSummary // sorted by (scenario sweep position, seed)

	// ShardedRows counts the checkpoint rows written by route-sharded
	// builds that the resume ignored. It is never rendered: a checkpointed
	// and a checkpoint-free fleet must render identical reports.
	ShardedRows int
}

// scenarioNames returns the report's grouping labels: the recorded sweep
// order, or (for hand-built and pre-scenario reports) the groups present in
// the summaries in order of first appearance. A group is a scenario name,
// or scenario@policy when a non-default handover policy ran — a policy
// sweep groups exactly like a scenario sweep.
func (r *Report) scenarioNames() []string {
	if len(r.Scenarios) > 0 {
		return r.Scenarios
	}
	var names []string
	seen := map[string]bool{}
	for _, s := range r.Summaries {
		name := s.group()
		if !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		names = []string{"paper"}
	}
	return names
}

// summariesFor returns the summaries belonging to one group label, in seed
// order (Summaries is already sorted).
func (r *Report) summariesFor(scenario string) []SeedSummary {
	var out []SeedSummary
	for _, s := range r.Summaries {
		if s.group() == scenario {
			out = append(out, s)
		}
	}
	return out
}

// InvariantRate is one shape invariant's replication count across seeds.
type InvariantRate struct {
	Name   string
	Desc   string
	Passed int
	Total  int
}

// Rate returns the replication rate in [0, 1] (0 for an empty fleet).
func (r InvariantRate) Rate() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Passed) / float64(r.Total)
}

// ReplicationRates scores every analysis.ShapeChecks invariant across all
// the fleet's summaries, in check order — the cross-route aggregate. A
// summary missing a verdict for a check (a checkpoint written before the
// check existed) counts as a failure — replication must be demonstrated,
// not assumed.
func (r *Report) ReplicationRates() []InvariantRate {
	return ratesOver(r.Summaries)
}

// RatesFor scores the invariants over one scenario's summaries only. The
// check names are stable across shape-parameter overrides (ShapeChecksWith
// keeps the same names for every threshold set), so per-scenario rates for
// the same invariant are comparable even when scenarios score against
// different thresholds.
func (r *Report) RatesFor(scenario string) []InvariantRate {
	return ratesOver(r.summariesFor(scenario))
}

func ratesOver(sums []SeedSummary) []InvariantRate {
	var out []InvariantRate
	for _, c := range analysis.ShapeChecks() {
		ir := InvariantRate{Name: c.Name, Desc: c.Desc, Total: len(sums)}
		for _, s := range sums {
			if s.Shapes[c.Name] {
				ir.Passed++
			}
		}
		out = append(out, ir)
	}
	return out
}

// robustThreshold is the replication rate at or above which an invariant
// counts as replicated within a scenario for the robustness verdict.
const robustThreshold = 0.8

// Robustness verdicts for one invariant across scenarios.
const (
	// VerdictRobust: the invariant replicates (rate >= 80%) in every swept
	// scenario — it follows from the modeled physics, not the paper's route.
	VerdictRobust = "route-robust"
	// VerdictRouteSpecific: the invariant replicates in at least one
	// scenario but fails in another — it is a property of particular route
	// geometries (the interesting finding a single-route study cannot see).
	VerdictRouteSpecific = "route-specific"
	// VerdictFragile: the invariant replicates nowhere in this sweep.
	VerdictFragile = "fragile"
)

// InvariantRobustness is one invariant's cross-scenario verdict: its
// replication rate in each swept scenario and the classification those
// rates imply.
type InvariantRobustness struct {
	Name, Desc string
	Rates      map[string]InvariantRate // keyed by scenario name
	Verdict    string
}

// Robustness classifies every invariant across the swept scenarios. It
// returns nil unless the report covers at least two scenarios — with one
// route there is no cross-route evidence to classify.
func (r *Report) Robustness() []InvariantRobustness {
	names := r.scenarioNames()
	if len(names) < 2 {
		return nil
	}
	perScenario := map[string][]InvariantRate{}
	for _, name := range names {
		perScenario[name] = r.RatesFor(name)
	}
	var out []InvariantRobustness
	for i, c := range analysis.ShapeChecks() {
		ir := InvariantRobustness{Name: c.Name, Desc: c.Desc, Rates: map[string]InvariantRate{}}
		passes, fails := 0, 0
		for _, name := range names {
			rate := perScenario[name][i]
			ir.Rates[name] = rate
			if rate.Rate() >= robustThreshold {
				passes++
			} else {
				fails++
			}
		}
		switch {
		case fails == 0:
			ir.Verdict = VerdictRobust
		case passes > 0:
			ir.Verdict = VerdictRouteSpecific
		default:
			ir.Verdict = VerdictFragile
		}
		out = append(out, ir)
	}
	return out
}

// MetricBand is one headline metric's movement across seeds: the per-seed
// values in seed order, their median, and a 95% percentile-bootstrap CI of
// the median (analysis.BootstrapCI across seeds).
type MetricBand struct {
	Scenario string
	Op       string // operator short name ("V", "T", "A")
	Metric   string
	Unit     string
	Values   []float64
	Median   float64
	Lo, Hi   float64
}

// metricDefs names every OpSummary headline field once, in render order.
var metricDefs = []struct {
	metric, unit string
	get          func(OpSummary) float64
	apps         bool // only rendered when the fleet ran app tests
}{
	{"driving DL median", "Mbps", func(o OpSummary) float64 { return o.DriveDLMedMbps }, false},
	{"driving UL median", "Mbps", func(o OpSummary) float64 { return o.DriveULMedMbps }, false},
	{"static DL median", "Mbps", func(o OpSummary) float64 { return o.StaticDLMedMbps }, false},
	{"driving RTT median", "ms", func(o OpSummary) float64 { return o.DriveRTTMedMs }, false},
	{"5G share of miles", "", func(o OpSummary) float64 { return o.FiveGMileShare }, false},
	{"high-speed 5G share", "", func(o OpSummary) float64 { return o.HighSpeedShare }, false},
	{"HOs/mile median", "/mi", func(o OpSummary) float64 { return o.HOsPerMileMed }, false},
	{"HO duration median", "ms", func(o OpSummary) float64 { return o.HODurMedMs }, false},
	{"video QoE median", "", func(o OpSummary) float64 { return o.VideoQoEMed }, true},
	{"gaming bitrate median", "Mbps", func(o OpSummary) float64 { return o.GamingMbpsMed }, true},
}

// bootstrapResamples sizes the cross-seed CI; seeded per (scenario, op,
// metric), so the bands regenerate bit-identically for a given fleet.
const bootstrapResamples = 500

// MetricBandsFor returns one scenario's per-operator headline bands in a
// fixed order. Bands never pool values across scenarios: a median over two
// different routes is not a statistic of either.
func (r *Report) MetricBandsFor(scenario string) []MetricBand {
	sums := r.summariesFor(scenario)
	apps := false
	for _, s := range sums {
		if s.AppRuns > 0 {
			apps = true
		}
	}
	var out []MetricBand
	for _, op := range radio.Operators() {
		for _, def := range metricDefs {
			if def.apps && !apps {
				continue
			}
			band := MetricBand{Scenario: scenario, Op: op.Short(), Metric: def.metric, Unit: def.unit}
			for _, s := range sums {
				band.Values = append(band.Values, def.get(s.Ops[op.Short()]))
			}
			band.Median = analysis.MedianStat(band.Values)
			rng := sim.NewRNG(r.StartSeed).Stream("fleet-bands", scenario, op.Short(), def.metric)
			band.Lo, band.Hi = analysis.BootstrapCI(band.Values, analysis.MedianStat, bootstrapResamples, 0.95, rng)
			out = append(out, band)
		}
	}
	return out
}

// seedRange renders "23..27" (or "23" for a single seed).
func (r *Report) seedRange() string {
	if r.Seeds == 1 {
		return fmt.Sprintf("%d", r.StartSeed)
	}
	return fmt.Sprintf("%d..%d", r.StartSeed, r.StartSeed+int64(r.Seeds)-1)
}

// renderRates prints one scenario's per-invariant replication table.
func renderRates(rates []InvariantRate) string {
	var b strings.Builder
	for _, ir := range rates {
		fmt.Fprintf(&b, "  %-26s %2d/%-2d (%3.0f%%)  %s\n", ir.Name, ir.Passed, ir.Total, 100*ir.Rate(), ir.Desc)
	}
	return b.String()
}

// renderBands prints one scenario's headline metric bands grouped by
// operator.
func renderBands(bands []MetricBand) string {
	var b strings.Builder
	lastOp := ""
	for _, m := range bands {
		if m.Op != lastOp {
			lastOp = m.Op
			fmt.Fprintf(&b, "  %s:\n", opName(m.Op))
		}
		fmt.Fprintf(&b, "    %-22s med=%9.2f  CI=[%8.2f, %8.2f] %s\n", m.Metric, m.Median, m.Lo, m.Hi, m.Unit)
	}
	return b.String()
}

// renderSeeds prints one line per completed seed.
func renderSeeds(sums []SeedSummary) string {
	var b strings.Builder
	for _, s := range sums {
		pass := 0
		for _, ok := range s.Shapes {
			if ok {
				pass++
			}
		}
		sha := ""
		if s.DatasetSHA256 != "" {
			sha = "  sha=" + s.DatasetSHA256[:8]
		}
		fmt.Fprintf(&b, "  seed %-6d shapes %2d/%-2d  thr=%d rtt=%d tests=%d HOs=%d apps=%d passive=%d%s\n",
			s.Seed, pass, len(s.Shapes), s.ThrSamples, s.RTTSamples, s.Tests, s.Handovers, s.AppRuns, s.PassiveSamples, sha)
	}
	return b.String()
}

// renderRobustness prints the cross-scenario verdict table: one line per
// invariant with its verdict, then the per-scenario rates that imply it.
func (r *Report) renderRobustness() string {
	var b strings.Builder
	names := r.scenarioNames()
	for _, ir := range r.Robustness() {
		fmt.Fprintf(&b, "  %-26s %-14s", ir.Name, ir.Verdict)
		for _, name := range names {
			rate := ir.Rates[name]
			fmt.Fprintf(&b, "  %s %d/%d", name, rate.Passed, rate.Total)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderText prints the cross-seed report. The output is a pure function
// of the summaries: re-running, resuming, or reordering workers cannot
// change a byte. A single-scenario fleet renders the classic flat layout;
// a sweep adds the robustness table and groups every section by scenario.
func (r *Report) RenderText() string {
	names := r.scenarioNames()
	var b strings.Builder
	if len(names) == 1 {
		scenarioNote := ""
		if names[0] != "paper" {
			scenarioNote = fmt.Sprintf(", scenario %s", names[0])
		}
		fmt.Fprintf(&b, "Replication fleet: seeds %s (%d of %d campaigns%s)\n",
			r.seedRange(), len(r.Summaries), r.Seeds, scenarioNote)
		if len(r.Summaries) == 0 {
			b.WriteString("  no completed seeds\n")
			return b.String()
		}
		b.WriteString("\nShape invariant replication:\n" + renderRates(r.RatesFor(names[0])))
		b.WriteString("\nHeadline metric bands (median across seeds, 95% bootstrap CI of the median):\n" + renderBands(r.MetricBandsFor(names[0])))
		b.WriteString("\nPer-seed shape verdicts (pass/total) and sample counts:\n" + renderSeeds(r.summariesFor(names[0])))
		return b.String()
	}

	fmt.Fprintf(&b, "Replication fleet: %d scenarios x seeds %s (%d of %d campaigns)\n",
		len(names), r.seedRange(), len(r.Summaries), len(names)*r.Seeds)
	fmt.Fprintf(&b, "Scenarios: %s\n", strings.Join(names, ", "))
	if len(r.Summaries) == 0 {
		b.WriteString("  no completed seeds\n")
		return b.String()
	}
	fmt.Fprintf(&b, "\nInvariant robustness across routes (replicated = rate >= %.0f%% within a scenario):\n", 100*robustThreshold)
	b.WriteString(r.renderRobustness())
	b.WriteString(r.renderPolicySweeps())
	for _, name := range names {
		fmt.Fprintf(&b, "\n=== scenario %s (%d seeds) ===\n", name, len(r.summariesFor(name)))
		b.WriteString("\nShape invariant replication:\n" + renderRates(r.RatesFor(name)))
		b.WriteString("\nHeadline metric bands (median across seeds, 95% bootstrap CI of the median):\n" + renderBands(r.MetricBandsFor(name)))
		b.WriteString("\nPer-seed shape verdicts (pass/total) and sample counts:\n" + renderSeeds(r.summariesFor(name)))
	}
	return b.String()
}

// opName expands an operator short code for display.
func opName(short string) string {
	for _, op := range radio.Operators() {
		if op.Short() == short {
			return op.String()
		}
	}
	return short
}

// HTML renders the report as a self-contained page via report.BuildPage.
func (r *Report) HTML() ([]byte, error) {
	names := r.scenarioNames()
	var sections []report.Section
	switch {
	case len(r.Summaries) == 0:
		sections = []report.Section{{Title: "Cross-seed replication", Pre: r.RenderText()}}
	case len(names) == 1:
		sections = []report.Section{
			{Title: "Shape invariant replication", Pre: renderRates(r.RatesFor(names[0]))},
			{Title: "Headline metric bands", Pre: renderBands(r.MetricBandsFor(names[0]))},
			{Title: "Per-seed summaries", Pre: renderSeeds(r.summariesFor(names[0]))},
		}
	default:
		sections = []report.Section{
			{Title: "Invariant robustness across routes", Pre: r.renderRobustness()},
		}
		if ps := r.renderPolicySweeps(); ps != "" {
			sections = append(sections, report.Section{Title: "Policy dominance per road class", Pre: ps})
		}
		for _, name := range names {
			sections = append(sections, report.Section{
				Title: fmt.Sprintf("Scenario %s", name),
				Pre: "Shape invariant replication:\n" + renderRates(r.RatesFor(name)) +
					"\nHeadline metric bands:\n" + renderBands(r.MetricBandsFor(name)) +
					"\nPer-seed summaries:\n" + renderSeeds(r.summariesFor(name)),
			})
		}
	}
	return report.BuildPage(
		"Replication fleet — cross-seed shape verdicts",
		fmt.Sprintf("Scenarios %s; seeds %s: %d completed summaries.",
			strings.Join(names, ", "), r.seedRange(), len(r.Summaries)),
		"Generated by cmd/fleet. Summaries are pure functions of (scenario, policy, seed); the report regenerates bit-identically.",
		sections)
}
