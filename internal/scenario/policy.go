package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"wheels/internal/campaign"
	"wheels/internal/radio"
	"wheels/internal/ran"
)

// ElevationConfig overrides one traffic class's elevation probabilities.
// Nil fields keep the operator's default for that tier.
type ElevationConfig struct {
	MmWave *float64 `json:"mmwave,omitempty"`
	Mid    *float64 `json:"mid,omitempty"`
	Low    *float64 `json:"low,omitempty"`
}

// PolicyConfig is a partial per-operator handover policy: every field is a
// pointer, and nil fields keep the operator's default (paper-measured)
// value, so a scenario only pins the knobs it cares about — the same
// overlay idiom ScheduleConfig uses for the test schedule.
//
// Elevation is keyed by traffic class ("idle", "probe", "bulk-dl",
// "bulk-ul"), optionally suffixed ":west" or ":east" to override one
// country half only; an unsuffixed key sets both halves.
type PolicyConfig struct {
	HysteresisFrac *float64                   `json:"hysteresis_frac,omitempty"`
	EvalMinSec     *float64                   `json:"eval_min_sec,omitempty"`
	EvalMaxSec     *float64                   `json:"eval_max_sec,omitempty"`
	HOMedianDLMs   *float64                   `json:"ho_median_dl_ms,omitempty"`
	HOMedianULMs   *float64                   `json:"ho_median_ul_ms,omitempty"`
	HOSigma        *float64                   `json:"ho_sigma,omitempty"`
	LTEAProb       *float64                   `json:"ltea_prob,omitempty"`
	Elevation      map[string]ElevationConfig `json:"elevation,omitempty"`
}

// parseElevationKey resolves an Elevation map key to its traffic class and
// the zone halves it addresses (both when unsuffixed).
func parseElevationKey(key string) (cls ran.TrafficClass, halves []int, ok bool) {
	name, suffix, hasSuffix := strings.Cut(key, ":")
	switch name {
	case "idle":
		cls = ran.ClassIdle
	case "probe":
		cls = ran.ClassProbe
	case "bulk-dl":
		cls = ran.ClassBulkDL
	case "bulk-ul":
		cls = ran.ClassBulkUL
	default:
		return 0, nil, false
	}
	if !hasSuffix {
		return cls, []int{ran.ZoneWest, ran.ZoneEast}, true
	}
	switch suffix {
	case "west":
		return cls, []int{ran.ZoneWest}, true
	case "east":
		return cls, []int{ran.ZoneEast}, true
	default:
		return 0, nil, false
	}
}

// Apply overlays the partial policy onto cfg in place. It resolves key
// syntax only; range checking is HandoverConfig.Validate's job, which the
// caller runs on the overlaid result. Grid policies reuse this exact
// overlay schema for the fleet's policy axis.
func (p PolicyConfig) Apply(cfg *ran.HandoverConfig) error {
	set := func(dst *float64, v *float64) {
		if v != nil {
			*dst = *v
		}
	}
	set(&cfg.HysteresisFrac, p.HysteresisFrac)
	set(&cfg.EvalMinSec, p.EvalMinSec)
	set(&cfg.EvalMaxSec, p.EvalMaxSec)
	set(&cfg.HOMedianDLMs, p.HOMedianDLMs)
	set(&cfg.HOMedianULMs, p.HOMedianULMs)
	set(&cfg.HOSigma, p.HOSigma)
	set(&cfg.LTEAProb, p.LTEAProb)
	for key, e := range p.Elevation {
		cls, halves, ok := parseElevationKey(key)
		if !ok {
			return fmt.Errorf(`unknown elevation key %q (want "idle"/"probe"/"bulk-dl"/"bulk-ul", optionally ":west"/":east")`, key)
		}
		for _, half := range halves {
			set(&cfg.Elev[cls][half][ran.TiermmW], e.MmWave)
			set(&cfg.Elev[cls][half][ran.TierMid], e.Mid)
			set(&cfg.Elev[cls][half][ran.TierLow], e.Low)
		}
	}
	return nil
}

// HandoverConfigs resolves the scenario's per-operator handover policies:
// each operator's default overlaid with the config's partial overrides.
// Operators the config does not mention keep the zero value, which the
// campaign testbed resolves to the default policy — so a scenario without a
// handover section compiles to a testbed with an empty policy digest,
// exactly as before policies existed.
func (s *Scenario) HandoverConfigs() [radio.NumOperators]ran.HandoverConfig {
	out, _ := overlayPolicies(nil, s.cfg.Handover) // validated
	return out
}

// validatePolicies checks the handover section: known operator names, known
// elevation keys, and an overlaid config each operator's ran layer accepts.
func validatePolicies(cfg Config) error {
	if _, err := overlayPolicies(nil, cfg.Handover); err != nil {
		return fmt.Errorf("scenario %s: handover: %w", cfg.Name, err)
	}
	return nil
}

// overlayPolicies materializes per-operator handover configs. Every
// operator an overlay touches starts from its default policy, takes all
// (when non-nil) and then its own entry in ops, and the result must pass
// HandoverConfig.Validate. Untouched operators keep the zero value, which
// the campaign testbed maps to the default policy — so no overlays at all
// yield an empty policy digest.
func overlayPolicies(all *PolicyConfig, ops map[string]PolicyConfig) ([radio.NumOperators]ran.HandoverConfig, error) {
	var out [radio.NumOperators]ran.HandoverConfig
	var touched [radio.NumOperators]bool
	materialize := func(op radio.Operator) *ran.HandoverConfig {
		if !touched[op] {
			out[op] = ran.DefaultHandoverConfig(op)
			touched[op] = true
		}
		return &out[op]
	}
	if all != nil {
		for _, op := range radio.Operators() {
			if err := all.Apply(materialize(op)); err != nil {
				return out, err
			}
		}
	}
	for name, pc := range ops {
		op, ok := parseOperator(name)
		if !ok {
			return out, fmt.Errorf("unknown operator %q", name)
		}
		if err := pc.Apply(materialize(op)); err != nil {
			return out, fmt.Errorf("operator %s: %w", name, err)
		}
	}
	for _, op := range radio.Operators() {
		if !touched[op] {
			continue
		}
		if err := out[op].Validate(); err != nil {
			return out, fmt.Errorf("operator %s: %w", op, err)
		}
	}
	return out, nil
}

// GridPolicy is one named point in a policy grid. All applies to every
// operator; Operators refines single operators on top of that. Both use
// the scenario handover-section schema (partial overlays onto the
// operator's default policy).
type GridPolicy struct {
	Name      string                  `json:"name"`
	All       *PolicyConfig           `json:"all,omitempty"`
	Operators map[string]PolicyConfig `json:"operators,omitempty"`
}

// Grid is a declarative handover-policy axis: every fleet scenario runs
// once under each of its policies.
type Grid struct {
	Policies []GridPolicy `json:"policies"`
}

// builtinGrid is the built-in policy axis: the measured baseline plus the
// three directions the paper's findings make interesting — a sticky policy
// (wider A3 margin, slower evaluation: fewer handovers at the cost of
// staleness), a nervous one (the opposite corner), and an eager-5g one
// (elevation probabilities pushed up across all traffic classes, probing
// whether more 5G dwell survives the extra vertical handovers it costs).
const builtinGrid = `{
  "policies": [
    {"name": "baseline"},
    {"name": "sticky",
     "all": {"hysteresis_frac": 0.20, "eval_min_sec": 14, "eval_max_sec": 24}},
    {"name": "nervous",
     "all": {"hysteresis_frac": 0.02, "eval_min_sec": 5, "eval_max_sec": 9}},
    {"name": "eager-5g",
     "all": {"elevation": {
       "idle":    {"mmwave": 0.20, "mid": 0.60, "low": 0.75},
       "probe":   {"mmwave": 0.25, "mid": 0.65, "low": 0.80},
       "bulk-dl": {"mmwave": 0.95, "mid": 0.95, "low": 0.90},
       "bulk-ul": {"mmwave": 0.60, "mid": 0.70, "low": 0.85}}}}
  ]
}`

// LoadGrid returns the built-in baseline/sticky/nervous/eager-5g grid for
// "builtin", and otherwise parses the JSON grid file at path spec.
func LoadGrid(spec string) (*Grid, error) {
	raw := []byte(builtinGrid)
	if spec != "builtin" {
		b, err := os.ReadFile(spec)
		if err != nil {
			return nil, err
		}
		raw = b
	}
	return parseGrid(raw)
}

// parseGrid decodes and validates a grid: unique non-empty names, known
// operator keys, and per-operator configs the ran layer accepts.
func parseGrid(raw []byte) (*Grid, error) {
	var g Grid
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&g); err != nil {
		return nil, err
	}
	if len(g.Policies) == 0 {
		return nil, fmt.Errorf("grid lists no policies")
	}
	seen := map[string]bool{}
	for _, p := range g.Policies {
		if p.Name == "" {
			return nil, fmt.Errorf("grid policy with empty name")
		}
		if seen[p.Name] {
			return nil, fmt.Errorf("grid policy %q listed twice", p.Name)
		}
		seen[p.Name] = true
		if _, err := p.resolve(); err != nil {
			return nil, fmt.Errorf("policy %q: %w", p.Name, err)
		}
	}
	return &g, nil
}

// resolve materializes the policy's per-operator handover configs; an
// all-empty policy yields an empty digest, i.e. exactly the default cell.
func (p GridPolicy) resolve() ([radio.NumOperators]ran.HandoverConfig, error) {
	return overlayPolicies(p.All, p.Operators)
}

// Testbed returns the testbed the policy's grid cell runs on. A policy
// without overrides (and the zero GridPolicy) uses tb unchanged, the
// scenario's own handover section included. Any other policy gets a
// shallow clone of tb — sharing its immutable route and server registry,
// so per-seed drive traces are identical across the grid row — with
// Handover replaced by the policy's resolved configs.
func (p GridPolicy) Testbed(tb *campaign.Testbed) (*campaign.Testbed, error) {
	if p.All == nil && len(p.Operators) == 0 {
		return tb, nil
	}
	ho, err := p.resolve()
	if err != nil {
		return nil, fmt.Errorf("policy %s: %w", p.Name, err)
	}
	clone := *tb
	clone.Handover = ho
	return &clone, nil
}
