package ran

import (
	"math"
	"strings"
	"testing"

	"wheels/internal/deploy"
	"wheels/internal/geo"
	"wheels/internal/radio"
	"wheels/internal/sim"
)

// TestElevationProbTables spot-checks the legacy elevation tables against
// the paper's figures: the values DefaultHandoverConfig samples are the
// documented policy, so these rows pin the numbers the defaults inherit.
func TestElevationProbTables(t *testing.T) {
	cases := []struct {
		name string
		op   radio.Operator
		tech radio.Tech
		tr   Traffic
		zone geo.Timezone
		want float64
	}{
		{"att-idle-never-elevates-mmw", radio.ATT, radio.NRmmW, Idle, geo.Pacific, 0},
		{"att-idle-never-elevates-low", radio.ATT, radio.NRLow, Idle, geo.Eastern, 0},
		{"verizon-idle-mmw-rare", radio.Verizon, radio.NRmmW, Idle, geo.Pacific, 0.01},
		{"verizon-idle-low", radio.Verizon, radio.NRLow, Idle, geo.Central, 0.15},
		{"tmobile-idle-east-low", radio.TMobile, radio.NRLow, Idle, geo.Eastern, 0.65},
		{"tmobile-idle-west-low", radio.TMobile, radio.NRLow, Idle, geo.Pacific, 0.12},
		{"tmobile-idle-central-counts-as-east", radio.TMobile, radio.NRMid, Idle, geo.Central, 0.55},
		{"tmobile-idle-mountain-counts-as-west", radio.TMobile, radio.NRMid, Idle, geo.Mountain, 0.06},
		{"att-probe-mid", radio.ATT, radio.NRMid, RTTProbe, geo.Pacific, 0.10},
		{"verizon-probe-low", radio.Verizon, radio.NRLow, RTTProbe, geo.Eastern, 0.45},
		{"verizon-bulk-dl-mmw-aggressive", radio.Verizon, radio.NRmmW, BacklogDL, geo.Pacific, 0.92},
		{"tmobile-bulk-dl-mid", radio.TMobile, radio.NRMid, BacklogDL, geo.Eastern, 0.92},
		{"app-dl-shares-bulk-dl-policy", radio.ATT, radio.NRMid, AppDL, geo.Pacific, 0.85},
		{"verizon-bulk-ul-prefers-low", radio.Verizon, radio.NRLow, BacklogUL, geo.Pacific, 0.70},
		{"app-ul-shares-bulk-ul-policy", radio.TMobile, radio.NRMid, AppUL, geo.Eastern, 0.65},
		{"att-bulk-ul-mmw-reluctant", radio.ATT, radio.NRmmW, BacklogUL, geo.Central, 0.30},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := elevationProb(c.op, c.tech, c.tr, c.zone); got != c.want {
				t.Errorf("elevationProb(%v, %v, %v, %v) = %g, want %g",
					c.op, c.tech, c.tr, c.zone, got, c.want)
			}
		})
	}
}

// TestDefaultConfigMatchesLegacyPolicy proves the equal-by-construction
// claim: for every operator, traffic profile, timezone, and 5G tier the
// default config's table lookup returns exactly what the legacy switch
// tables return, and the scalar fields carry the legacy constants.
func TestDefaultConfigMatchesLegacyPolicy(t *testing.T) {
	traffics := []Traffic{Idle, RTTProbe, BacklogDL, BacklogUL, AppDL, AppUL}
	zones := []geo.Timezone{geo.Pacific, geo.Mountain, geo.Central, geo.Eastern}
	tiers := []radio.Tech{radio.NRmmW, radio.NRMid, radio.NRLow}
	for _, op := range radio.Operators() {
		cfg := DefaultPolicy(op)
		for _, tr := range traffics {
			for _, zone := range zones {
				for _, tech := range tiers {
					want := elevationProb(op, tech, tr, zone)
					if got := cfg.ElevProb(tech, tr, zone); got != want {
						t.Errorf("%v: ElevProb(%v, %v, %v) = %g, legacy table says %g",
							op, tech, tr, zone, got, want)
					}
				}
			}
		}
		if cfg.LTEAProb != lteaProb(op) {
			t.Errorf("%v: LTEAProb = %g, want %g", op, cfg.LTEAProb, lteaProb(op))
		}
		if cfg.HOMedianDLMs != hoDurationMedianMs(op, radio.Downlink) ||
			cfg.HOMedianULMs != hoDurationMedianMs(op, radio.Uplink) {
			t.Errorf("%v: interruption medians (%g, %g) do not match legacy (%g, %g)",
				op, cfg.HOMedianDLMs, cfg.HOMedianULMs,
				hoDurationMedianMs(op, radio.Downlink), hoDurationMedianMs(op, radio.Uplink))
		}
		if cfg.HOSigma != hoDurationSigma || cfg.HysteresisFrac != hoHysteresisFrac ||
			cfg.EvalMinSec != evalMinSec || cfg.EvalMaxSec != evalMaxSec {
			t.Errorf("%v: scalar fields diverge from legacy constants: %+v", op, cfg)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%v: default config fails its own validation: %v", op, err)
		}
		if !cfg.IsDefault(op) {
			t.Errorf("%v: DefaultPolicy not recognized as default", op)
		}
	}
}

// chooseTechUE builds a UE with a fully controlled policy so the tier walk
// can be pinned: probabilities of exactly 0 and 1 make rng.Bool
// deterministic regardless of the draw.
func chooseTechUE(t *testing.T, cfg HandoverConfig) *UE {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("test config invalid: %v", err)
	}
	route := geo.NewRoute()
	dep := deploy.NewUpToDensity(route, radio.Verizon, sim.NewRNG(23).Stream("deploy"), 0, deploy.DefaultDensity())
	return NewUEWithConfig(sim.NewRNG(23).Stream("choose-test"), dep, &cfg)
}

// maskOf packs a technology set for chooseTech.
func maskOf(techs ...radio.Tech) deploy.TechMask {
	var m deploy.TechMask
	for _, t := range techs {
		m |= deploy.TechMask(1) << uint(t)
	}
	return m
}

// TestChooseTechTierWalk pins the policy walk order and fallbacks: tiers
// are offered fastest-first, a declined walk lands on LTE-A/LTE gated by
// LTEAProb, and degenerate availability sets resolve sensibly.
func TestChooseTechTierWalk(t *testing.T) {
	base := DefaultHandoverConfig(radio.Verizon)
	all := maskOf(radio.LTE, radio.LTEA, radio.NRLow, radio.NRMid, radio.NRmmW)

	withElev := func(mmw, mid, low, ltea float64) HandoverConfig {
		cfg := base
		cfg.LTEAProb = ltea
		for cls := 0; cls < NumTrafficClasses; cls++ {
			for half := 0; half < NumZoneHalves; half++ {
				cfg.Elev[cls][half] = [NumElevTiers]float64{mmw, mid, low}
			}
		}
		return cfg
	}

	cases := []struct {
		name  string
		cfg   HandoverConfig
		avail deploy.TechMask
		want  radio.Tech
	}{
		{"mmw-certain-wins-first", withElev(1, 1, 1, 1), all, radio.NRmmW},
		{"mid-next-when-mmw-declined", withElev(0, 1, 1, 1), all, radio.NRMid},
		{"low-next-when-mid-declined", withElev(0, 0, 1, 1), all, radio.NRLow},
		{"mmw-skipped-when-unavailable", withElev(1, 1, 1, 1), maskOf(radio.LTE, radio.NRMid, radio.NRLow), radio.NRMid},
		{"all-declined-ltea", withElev(0, 0, 0, 1), all, radio.LTEA},
		{"all-declined-lte", withElev(0, 0, 0, 0), all, radio.LTE},
		{"only-ltea-no-draw-needed", withElev(0, 0, 0, 0), maskOf(radio.LTEA, radio.NRLow), radio.LTEA},
		{"only-lte-no-draw-needed", withElev(0, 0, 0, 1), maskOf(radio.LTE), radio.LTE},
		{"pure-5g-falls-to-best", withElev(0, 0, 0, 1), maskOf(radio.NRLow, radio.NRMid), radio.NRMid},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ue := chooseTechUE(t, c.cfg)
			// Repeat the walk: with 0/1 probabilities the outcome must be
			// identical on every draw, not just the first.
			for i := 0; i < 32; i++ {
				if got := ue.chooseTech(c.avail, BacklogDL, geo.Pacific); got != c.want {
					t.Fatalf("draw %d: chooseTech = %v, want %v", i, got, c.want)
				}
			}
		})
	}
}

// TestHandoverConfigValidate is the rejection table: each row mutates one
// field of a valid default config into an invalid state and expects a
// complaint mentioning the field.
func TestHandoverConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*HandoverConfig)
		errPart string
	}{
		{"negative-hysteresis", func(c *HandoverConfig) { c.HysteresisFrac = -0.01 }, "hysteresis"},
		{"nan-hysteresis", func(c *HandoverConfig) { c.HysteresisFrac = math.NaN() }, "not finite"},
		{"zero-eval-min", func(c *HandoverConfig) { c.EvalMinSec = 0 }, "eval-min"},
		{"negative-eval-min", func(c *HandoverConfig) { c.EvalMinSec = -3 }, "eval-min"},
		{"inverted-eval-bounds", func(c *HandoverConfig) { c.EvalMinSec, c.EvalMaxSec = 16, 9 }, "inverted"},
		{"inf-eval-max", func(c *HandoverConfig) { c.EvalMaxSec = math.Inf(1) }, "not finite"},
		{"zero-dl-median", func(c *HandoverConfig) { c.HOMedianDLMs = 0 }, "median"},
		{"negative-ul-median", func(c *HandoverConfig) { c.HOMedianULMs = -53 }, "median"},
		{"negative-sigma", func(c *HandoverConfig) { c.HOSigma = -0.42 }, "sigma"},
		{"ltea-prob-above-one", func(c *HandoverConfig) { c.LTEAProb = 1.5 }, "ltea-prob"},
		{"ltea-prob-negative", func(c *HandoverConfig) { c.LTEAProb = -0.1 }, "ltea-prob"},
		{"elev-prob-above-one", func(c *HandoverConfig) { c.Elev[ClassBulkDL][ZoneWest][TiermmW] = 1.5 }, "elevation"},
		{"elev-prob-negative", func(c *HandoverConfig) { c.Elev[ClassIdle][ZoneEast][TierLow] = -0.2 }, "elevation"},
		{"elev-prob-nan", func(c *HandoverConfig) { c.Elev[ClassProbe][ZoneWest][TierMid] = math.NaN() }, "elevation"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultHandoverConfig(radio.TMobile)
			c.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("invalid config accepted: %+v", cfg)
			}
			if !strings.Contains(err.Error(), c.errPart) {
				t.Errorf("error %q does not mention %q", err, c.errPart)
			}
		})
	}
}

// TestHandoverConfigDigest pins the digest contract: stable across calls,
// equal for equal configs, distinct across operators and across any field
// change, and short-hex shaped.
func TestHandoverConfigDigest(t *testing.T) {
	seen := map[string]radio.Operator{}
	for _, op := range radio.Operators() {
		cfg := DefaultHandoverConfig(op)
		d := cfg.Digest()
		if len(d) != 12 || strings.Trim(d, "0123456789abcdef") != "" {
			t.Fatalf("%v: digest %q is not 12 lowercase hex digits", op, d)
		}
		if d != cfg.Digest() {
			t.Errorf("%v: digest not stable across calls", op)
		}
		if prev, dup := seen[d]; dup {
			t.Errorf("digest collision between %v and %v", prev, op)
		}
		seen[d] = op
	}
	cfg := DefaultHandoverConfig(radio.Verizon)
	base := cfg.Digest()
	cfg.HysteresisFrac += 0.01
	if cfg.Digest() == base {
		t.Error("digest unchanged after mutating HysteresisFrac")
	}
	cfg = DefaultHandoverConfig(radio.Verizon)
	cfg.Elev[ClassIdle][ZoneWest][TierLow] += 0.01
	if cfg.Digest() == base {
		t.Error("digest unchanged after mutating one elevation cell")
	}
	if cfg.IsDefault(radio.Verizon) {
		t.Error("mutated config still reported as default")
	}
}

// FuzzHandoverConfig fuzzes Validate over raw field values, mirroring
// FuzzScenarioConfig's contract for the policy layer: Validate must never
// panic, must reject every config violating a documented invariant
// (negative margins, inverted eval bounds, probabilities outside [0,1],
// non-finite fields), and must accept everything else — and every accepted
// config must digest deterministically.
func FuzzHandoverConfig(f *testing.F) {
	f.Add(0.08, 9.0, 16.0, 53.0, 49.0, 0.42, 0.70, 0.5, uint8(0))
	f.Add(-0.01, 9.0, 16.0, 53.0, 49.0, 0.42, 0.70, 0.5, uint8(1))
	f.Add(0.08, 16.0, 9.0, 53.0, 49.0, 0.42, 0.70, 1.5, uint8(2))
	f.Add(0.08, 0.0, 16.0, 0.0, -1.0, -0.42, -0.1, math.NaN(), uint8(23))
	f.Add(math.Inf(1), 9.0, math.Inf(-1), 53.0, 49.0, 0.42, 2.0, 1.0, uint8(7))
	f.Fuzz(func(t *testing.T, hyst, evalMin, evalMax, dlMs, ulMs, sigma, ltea, elev float64, cell uint8) {
		cfg := DefaultHandoverConfig(radio.Verizon)
		cfg.HysteresisFrac = hyst
		cfg.EvalMinSec = evalMin
		cfg.EvalMaxSec = evalMax
		cfg.HOMedianDLMs = dlMs
		cfg.HOMedianULMs = ulMs
		cfg.HOSigma = sigma
		cfg.LTEAProb = ltea
		idx := int(cell) % (NumTrafficClasses * NumZoneHalves * NumElevTiers)
		cfg.Elev[idx/(NumZoneHalves*NumElevTiers)][(idx/NumElevTiers)%NumZoneHalves][idx%NumElevTiers] = elev

		err := cfg.Validate()

		finite := func(vs ...float64) bool {
			for _, v := range vs {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return false
				}
			}
			return true
		}
		valid := finite(hyst, evalMin, evalMax, dlMs, ulMs, sigma, ltea) &&
			hyst >= 0 && evalMin > 0 && evalMax >= evalMin &&
			dlMs > 0 && ulMs > 0 && sigma >= 0 &&
			ltea >= 0 && ltea <= 1 &&
			!math.IsNaN(elev) && elev >= 0 && elev <= 1

		if valid && err != nil {
			t.Fatalf("valid config rejected: %v\n%+v", err, cfg)
		}
		if !valid && err == nil {
			t.Fatalf("invalid config accepted: %+v", cfg)
		}
		if err == nil {
			d := cfg.Digest()
			if len(d) != 12 || d != cfg.Digest() {
				t.Fatalf("accepted config digests unstably: %q vs %q", d, cfg.Digest())
			}
		}
	})
}

// TestTrafficClassMapping pins the six-profile-to-four-class bucketing the
// elevation table is indexed by.
func TestTrafficClassMapping(t *testing.T) {
	want := map[Traffic]TrafficClass{
		Idle: ClassIdle, RTTProbe: ClassProbe,
		BacklogDL: ClassBulkDL, AppDL: ClassBulkDL,
		BacklogUL: ClassBulkUL, AppUL: ClassBulkUL,
	}
	for tr, cls := range want {
		if got := tr.Class(); got != cls {
			t.Errorf("%v.Class() = %v, want %v", tr, got, cls)
		}
	}
	zones := map[geo.Timezone]int{
		geo.Pacific: ZoneWest, geo.Mountain: ZoneWest,
		geo.Central: ZoneEast, geo.Eastern: ZoneEast,
	}
	for zone, half := range zones {
		if got := zoneHalf(zone); got != half {
			t.Errorf("zoneHalf(%v) = %d, want %d", zone, got, half)
		}
	}
}
