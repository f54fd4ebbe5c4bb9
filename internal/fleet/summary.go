// Package fleet runs the campaign many times — scenarios × seeds s..s+N-1
// — over a bounded worker pool and scores how reliably the EXPERIMENTS.md
// shape invariants replicate across seeds and routes. The source study
// replicates one drive; the fleet asks the next questions: with everything
// resampled, which of its qualitative claims survive, with what confidence
// — and do they survive because of the physics or because of the route?
//
// Memory model: each campaign streams its records straight into a compact
// per-seed reduction — an analysis.Accumulator (headline medians, coverage
// shares, handover statistics, app QoE, and the shape-invariant pass/fail
// vector) teed with a dataset.HashSink fingerprint — so no dataset is ever
// materialized and a fleet of any size holds at most `workers` accumulators
// at once.
// Summaries checkpoint to a JSONL file as seeds finish; an interrupted
// fleet resumes by skipping completed seeds, and because a summary is a
// pure function of (scenario, policy, seed), the resumed report is
// byte-identical to an uninterrupted run's.
package fleet

import (
	"wheels/internal/analysis"
	"wheels/internal/campaign"
	"wheels/internal/dataset"
	"wheels/internal/geo"
	"wheels/internal/radio"
)

// Scenario is one route the fleet sweeps its seed range over. The fleet
// does not know how testbeds are made — the caller (cmd/fleet compiles
// internal/scenario definitions) supplies the immutable substrate and the
// scenario-specific scoring knobs; the fleet only varies the randomness.
type Scenario struct {
	// Name keys checkpoint rows and report groups. Empty normalizes to
	// "paper", matching the checkpoint decoder's default for files written
	// before scenarios existed.
	Name string

	// Policy is the handover-policy digest of this scenario's testbed
	// (campaign.Testbed.PolicyDigest). Empty means every operator runs its
	// default policy — the digest of every pre-policy fleet — and Run fills
	// it from the testbed, so callers only set it to override. Checkpoint
	// rows carry it alongside the scenario name: the same scenario swept
	// under two policies yields distinguishable rows.
	Policy string

	// PolicyName is the human label for Policy in reports and progress
	// lines ("baseline", "sticky", ...). Purely presentational: keys and
	// resume use the digest.
	PolicyName string

	// Testbed is the seed-independent substrate (route, server registry,
	// deployment densities) every seed of this scenario shares read-only.
	// Nil means the paper testbed, built once per Run.
	Testbed *campaign.Testbed

	// Shapes parameterizes the shape invariants this scenario's seeds are
	// scored against (a mountain route does not hand over like the paper
	// route). The zero value normalizes to analysis.DefaultShapeParams().
	Shapes analysis.ShapeParams

	// Configure, when non-nil, rewrites the per-seed campaign config after
	// Base and Seed are applied — the hook scenarios with a pinned test
	// schedule (e.g. commuter-loop disables app tests) use to override the
	// fleet-wide Base without the fleet knowing why.
	Configure func(campaign.Config) campaign.Config
}

// label is the report-grouping name for this scenario: the bare name under
// the default policy (so pre-policy fleets render the exact bytes they
// always did), or name@policy when a non-default handover policy is in
// play. sn must be normalized (see Config.scenarios).
func (sn Scenario) label() string {
	return groupLabel(sn.Name, sn.Policy, sn.PolicyName)
}

// group is the report-grouping name for the scenario×policy cell this
// summary belongs to; see Scenario.label.
func (s SeedSummary) group() string {
	name := s.Scenario
	if name == "" {
		name = "paper"
	}
	return groupLabel(name, s.Policy, s.PolicyName)
}

func groupLabel(name, policy, policyName string) string {
	switch {
	case policy == "":
		return name
	case policyName != "":
		return name + "@" + policyName
	default:
		return name + "@" + policy
	}
}

// OpSummary is one operator's headline numbers for one seed — the compact
// projection of the EXPERIMENTS.md per-figure medians. Its fields are
// analysis.OpHeadline's, in the same order, so summarize converts one into
// the other directly.
type OpSummary struct {
	DriveDLMedMbps  float64 `json:"drive_dl_med_mbps"`
	DriveULMedMbps  float64 `json:"drive_ul_med_mbps"`
	StaticDLMedMbps float64 `json:"static_dl_med_mbps"`
	DriveRTTMedMs   float64 `json:"drive_rtt_med_ms"`
	FiveGMileShare  float64 `json:"fiveg_mile_share"`
	HighSpeedShare  float64 `json:"high_speed_mile_share"`
	HOsPerMileMed   float64 `json:"hos_per_mile_med"`
	HODurMedMs      float64 `json:"ho_dur_med_ms"`
	VideoQoEMed     float64 `json:"video_qoe_med"`
	GamingMbpsMed   float64 `json:"gaming_mbps_med"`
	VideoRuns       int     `json:"video_runs"`
	GamingRuns      int     `json:"gaming_runs"`
}

// SeedSummary is the per-seed reduction the fleet keeps after dropping the
// dataset, and the unit record of the checkpoint JSONL file. It is a pure
// function of (scenario, policy, seed): re-running the same seed over the
// same scenario and policy reproduces the summary bit-for-bit, which is
// what makes checkpoint resume equivalent to re-execution.
type SeedSummary struct {
	// Scenario names the route this seed ran over. It is omitted from the
	// JSON encoding when empty so pre-scenario fleets' checkpoint lines are
	// a strict subset of current ones; the decoder maps an absent field to
	// "paper" (the only scenario those builds could run).
	Scenario string `json:"scenario,omitempty"`

	// Policy is the scenario's handover-policy digest, and PolicyName its
	// display label. Both are omitted when empty (the default policy), so
	// pre-policy checkpoint lines are a strict subset of current ones and
	// default-policy fleets keep writing the exact bytes they always did.
	Policy     string `json:"policy,omitempty"`
	PolicyName string `json:"policy_name,omitempty"`

	Seed int64 `json:"seed"`

	Ops    map[string]OpSummary `json:"ops"`    // keyed by radio.Operator.Short()
	Shapes map[string]bool      `json:"shapes"` // Accumulator.Summarize verdicts

	// Roads is the per-road-class reduction (handover rate, 5G dwell,
	// throughput quantiles) the policy-sweep report compares configs on,
	// keyed by geo.RoadClass.String(). Road classes with no samples are
	// omitted; fleets run before the field existed resume with a nil map.
	Roads map[string]analysis.RoadSummary `json:"roads,omitempty"`

	ThrSamples     int `json:"thr_samples"`
	RTTSamples     int `json:"rtt_samples"`
	Tests          int `json:"tests"`
	Handovers      int `json:"handovers"`
	AppRuns        int `json:"app_runs"`
	PassiveSamples int `json:"passive_samples"`

	// DatasetSHA256 fingerprints the seed's canonical CSV encoding
	// (dataset.HashSink), computed from the record stream without
	// materializing it; a dumped seed takes it from the dump writer, which
	// digests the same bytes as it compresses them. Resume uses it to
	// detect code drift: a checkpointed hash that disagrees with a
	// recomputed one means the summary was produced by a different engine
	// than the one now running (see Config.VerifyResume). Empty in
	// checkpoints from older builds.
	DatasetSHA256 string `json:"dataset_sha256,omitempty"`
}

// digester is a sink that reports the dataset.HashSink digest of the
// records it consumed: HashSink itself, or the dump writer
// (dataset.ParallelCSVWriter), which digests the bytes it compresses.
type digester interface{ Sum() string }

// seedScratch is one fleet worker's reusable per-seed reduction state: the
// accumulator and hash sink are allocated once per worker and reset between
// seeds, so a long fleet's steady-state allocation is the records' transient
// scratch, not a fresh reduction pipeline per seed.
type seedScratch struct {
	acc *analysis.Accumulator
	h   *dataset.HashSink
}

func newSeedScratch() *seedScratch {
	return &seedScratch{acc: analysis.NewAccumulator(0), h: dataset.NewHashSink()}
}

// runSeed executes one seed's campaign end to end in streaming form: every
// record flows through the accumulator and the hash sink as it is produced
// and is then dropped, so a running seed's live memory is the accumulator's
// metric slices, not the dataset. The scenario supplies the shared testbed
// substrate and the shape thresholds to score against (sn must be
// normalized — see Config.scenarios); extra, when non-nil, is teed into the
// record stream (the CLI's per-seed CSV dump). An extra sink that is a
// digester (the dump writer) supplies the digest itself and replaces the
// hash sink, so the stream is CSV-encoded once, not twice.
func runSeed(c campaign.Config, sn Scenario, sc *seedScratch, extra dataset.Sink) (SeedSummary, error) {
	sc.acc.Reset(c.Seed)
	sc.acc.SetShapeParams(sn.Shapes)
	sinks := []dataset.Sink{sc.acc}
	digest, ok := extra.(digester)
	if !ok {
		sc.h.Reset()
		digest = sc.h
		sinks = append(sinks, sc.h)
	}
	if extra != nil {
		sinks = append(sinks, extra)
	}
	sink := dataset.Tee(sinks...)
	campaign.NewWithTestbed(c, sn.Testbed).RunTo(sink)
	err := sink.Flush()
	sum := summarize(sc.acc, digest.Sum(), sn.Name)
	sum.Policy = sn.Policy
	sum.PolicyName = sn.PolicyName
	return sum, err
}

// summarize projects a fully-fed accumulator into the SeedSummary record.
func summarize(acc *analysis.Accumulator, sha string, scenario string) SeedSummary {
	n := acc.Counts()
	sum := SeedSummary{
		Scenario:       scenario,
		Seed:           acc.Seed(),
		Ops:            map[string]OpSummary{},
		Shapes:         map[string]bool{},
		ThrSamples:     n.Thr,
		RTTSamples:     n.RTT,
		Tests:          n.Tests,
		Handovers:      n.Handovers,
		AppRuns:        n.Apps,
		PassiveSamples: n.Passive,
		DatasetSHA256:  sha,
	}
	heads, shapes := acc.Summarize()
	for _, r := range shapes {
		sum.Shapes[r.Name] = r.Pass
	}
	for i, rs := range acc.RoadSummaries() {
		if rs.Samples == 0 {
			continue
		}
		if sum.Roads == nil {
			sum.Roads = map[string]analysis.RoadSummary{}
		}
		sum.Roads[geo.RoadClass(i).String()] = rs
	}
	for _, op := range radio.Operators() {
		sum.Ops[op.Short()] = OpSummary(heads[op])
	}
	return sum
}
