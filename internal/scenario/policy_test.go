package scenario

import (
	"strings"
	"testing"

	"wheels/internal/campaign"
	"wheels/internal/radio"
	"wheels/internal/ran"
)

// TestParseGridRejects: every malformed grid parseGrid must refuse, with a
// fragment the error message must contain.
func TestParseGridRejects(t *testing.T) {
	cases := []struct {
		name, grid, wantErr string
	}{
		{"no policies", `{"policies": []}`, "no policies"},
		{"missing policies", `{}`, "no policies"},
		{"empty name", `{"policies": [{"name": ""}]}`, "empty name"},
		{"duplicate name", `{"policies": [{"name": "a"}, {"name": "a"}]}`, "listed twice"},
		{"unknown operator", `{"policies": [{"name": "a", "operators": {"Sprint": {}}}]}`, "unknown operator"},
		{"unknown elevation key", `{"policies": [{"name": "a", "all": {"elevation": {"video": {"low": 0.5}}}}]}`, "unknown elevation key"},
		{"unknown elevation half", `{"policies": [{"name": "a", "all": {"elevation": {"idle:north": {"low": 0.5}}}}]}`, "unknown elevation key"},
		{"unknown field", `{"policies": [{"name": "a", "everyone": {}}]}`, "unknown field"},
		{"unknown policy field", `{"policies": [{"name": "a", "all": {"hysteresis": 0.1}}]}`, "unknown field"},
		{"inverted eval bounds", `{"policies": [{"name": "a", "all": {"eval_min_sec": 30, "eval_max_sec": 10}}]}`, "eval bounds inverted"},
		{"negative hysteresis", `{"policies": [{"name": "a", "operators": {"T": {"hysteresis_frac": -0.1}}}]}`, "hysteresis-frac"},
		{"ltea prob above 1", `{"policies": [{"name": "a", "operators": {"AT&T": {"ltea_prob": 1.5}}}]}`, "ltea-prob"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseGrid([]byte(tc.grid))
			if err == nil {
				t.Fatalf("parseGrid accepted %s", tc.grid)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestParseGridLayersOverlays: "operators" refines "all", and validation
// runs on the overlaid result, so an operator entry may repair bounds the
// "all" overlay alone would invert.
func TestParseGridLayersOverlays(t *testing.T) {
	g, err := parseGrid([]byte(`{"policies": [{"name": "a",
		"all": {"eval_min_sec": 30, "eval_max_sec": 40},
		"operators": {"V": {"eval_max_sec": 50}}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	ho, err := g.Policies[0].resolve()
	if err != nil {
		t.Fatal(err)
	}
	if got := ho[radio.Verizon].EvalMaxSec; got != 50 {
		t.Errorf("Verizon eval_max_sec = %g, want the operator overlay's 50", got)
	}
	if got := ho[radio.TMobile].EvalMaxSec; got != 40 {
		t.Errorf("T-Mobile eval_max_sec = %g, want the all overlay's 40", got)
	}
	if got, want := ho[radio.ATT].HysteresisFrac, ran.DefaultHandoverConfig(radio.ATT).HysteresisFrac; got != want {
		t.Errorf("AT&T hysteresis_frac = %g, want the untouched default %g", got, want)
	}
}

// TestBuiltinGrid: the built-in grid parses, its baseline resolves to the
// default-policy (empty) digest and reuses the scenario's own testbed, and
// every other policy stamps a distinct non-default digest on a clone that
// shares the route.
func TestBuiltinGrid(t *testing.T) {
	g, err := LoadGrid("builtin")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, p := range g.Policies {
		names = append(names, p.Name)
	}
	if got := strings.Join(names, ","); got != "baseline,sticky,nervous,eager-5g" {
		t.Fatalf("built-in grid policies = %s", got)
	}
	ho, err := g.Policies[0].resolve()
	if err != nil {
		t.Fatal(err)
	}
	if d := (&campaign.Testbed{Handover: ho}).PolicyDigest(); d != "" {
		t.Errorf("baseline resolves to policy digest %q, want empty", d)
	}

	tb := MustLoad("dense-urban").MustCompile()
	seen := map[string]bool{}
	for i, p := range g.Policies {
		cell, err := p.Testbed(tb)
		if err != nil {
			t.Fatal(err)
		}
		if (cell == tb) != (i == 0) {
			t.Errorf("policy %s: reuses scenario testbed = %v", p.Name, cell == tb)
		}
		if cell.Route != tb.Route {
			t.Errorf("policy %s: cell does not share the scenario route", p.Name)
		}
		d := cell.PolicyDigest()
		if (d == "") != (i == 0) || seen[d] {
			t.Errorf("policy %s: digest %q not distinct", p.Name, d)
		}
		seen[d] = true
	}
}

// TestLoadGridMissingFile: a -grid path that does not exist is an error,
// not a silent fall back to the built-in grid.
func TestLoadGridMissingFile(t *testing.T) {
	if _, err := LoadGrid(t.TempDir() + "/nope.json"); err == nil {
		t.Fatal("LoadGrid accepted a missing file")
	}
}
