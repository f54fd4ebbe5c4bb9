package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"wheels/internal/analysis"
	"wheels/internal/campaign"
	"wheels/internal/geo"
)

// MustLoad is Load for names known to exist; it panics on error.
func MustLoad(name string) *Scenario {
	s, err := Load(name)
	if err != nil {
		panic(err)
	}
	return s
}

// MustCompile is Compile for scenarios known valid; it panics on error.
func (s *Scenario) MustCompile() *campaign.Testbed {
	tb, err := s.Compile()
	if err != nil {
		panic(err)
	}
	return tb
}

// Parse decodes a JSON scenario config, rejecting unknown fields, and
// validates it through New.
func Parse(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var cfg Config
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("scenario: parse: %w", err)
	}
	return New(cfg)
}

// TestLibraryAllValidAndCompile proves every named scenario validates and
// compiles into a usable testbed.
func TestLibraryAllValidAndCompile(t *testing.T) {
	names := Names()
	if len(names) < 6 {
		t.Fatalf("library has %d scenarios, want ≥ 6: %v", len(names), names)
	}
	for _, name := range names {
		s, err := Load(name)
		if err != nil {
			t.Fatalf("Load(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("Load(%q).Name() = %q", name, s.Name())
		}
		tb, err := s.Compile()
		if err != nil {
			t.Fatalf("Compile(%q): %v", name, err)
		}
		if tb.Scenario != name {
			t.Errorf("%s: testbed scenario = %q", name, tb.Scenario)
		}
		if tb.Route.LengthKm() <= 0 || tb.Route.Days() < 1 {
			t.Errorf("%s: degenerate route %v km / %v days", name, tb.Route.LengthKm(), tb.Route.Days())
		}
		if len(tb.Route.EdgeCities()) == 0 {
			t.Errorf("%s: no edge cities — the server registry needs at least one", name)
		}
	}
}

// TestPaperScenarioMatchesTestbed proves the paper scenario compiles to the
// same route and registry the hardcoded constructor builds: identical city
// tables, leg geometry, bands, speeds, and identity deployment densities.
func TestPaperScenarioMatchesTestbed(t *testing.T) {
	tb, err := MustLoad("paper").Compile()
	if err != nil {
		t.Fatal(err)
	}
	ref := campaign.NewTestbed()
	if !reflect.DeepEqual(tb.Route, ref.Route) {
		t.Errorf("paper scenario route differs from geo.NewRoute()")
	}
	if !reflect.DeepEqual(tb.Reg, ref.Reg) {
		t.Errorf("paper scenario registry differs from NewTestbed's")
	}
	if p := MustLoad("paper").ShapeParams(); p != analysis.DefaultShapeParams() {
		t.Errorf("paper scenario shape params = %+v, want defaults", p)
	}
}

// rejection cases: every malformed config the validator must refuse, with
// a fragment the error message must contain.
func TestValidateRejectsMalformed(t *testing.T) {
	base := func() Config { return denseUrbanConfig() }
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr string
	}{
		{"empty name", func(c *Config) { c.Name = "" }, "no name"},
		{"name with comma", func(c *Config) { c.Name = "a,b" }, "commas"},
		{"one city", func(c *Config) { c.Cities = c.Cities[:1]; c.Legs = nil }, "at least 2 cities"},
		{"leg count mismatch", func(c *Config) { c.Legs = c.Legs[:2] }, "need"},
		{"duplicate city names", func(c *Config) { c.Cities[2].Name = c.Cities[0].Name }, "duplicate city name"},
		{"unnamed city", func(c *Config) { c.Cities[1].Name = "" }, "has no name"},
		{"city off the globe", func(c *Config) { c.Cities[0].Lat = 123 }, "off the globe"},
		{"zero city radius", func(c *Config) { c.Cities[0].RadiusKm = 0 }, "radius"},
		{"day gap", func(c *Config) { c.Legs[3].Day = 4 }, "day gap"},
		{"first leg not day 1", func(c *Config) {
			for i := range c.Legs {
				c.Legs[i].Day++
			}
		}, "want day 1"},
		{"negative towns", func(c *Config) { c.Legs[1].Towns = -1 }, "towns"},
		{"zero-length leg", func(c *Config) {
			c.Cities[1].Lat, c.Cities[1].Lon = c.Cities[0].Lat, c.Cities[0].Lon+0.001
		}, "zero-length leg"},
		// Burbank → Hollywood is ~13 road km, inside 2×SuburbKm = 16.
		{"towns on short leg", func(c *Config) { c.Legs[3].Towns = 3 }, "too short for intermediate towns"},
		{"winding below 1", func(c *Config) { c.Roads.WindingFactor = 0.8 }, "winding factor"},
		{"suburb inside city band", func(c *Config) { c.Roads.SuburbKm = c.Roads.CityKm / 2 }, "road bands"},
		{"speed lo above hi", func(c *Config) {
			c.Speeds = &SpeedConfig{
				City:     SpeedClassConfig{MeanMPH: 10, SigmaMPH: 5, TauSec: 20, LoMPH: 50, HiMPH: 30},
				Suburban: SpeedClassConfig{MeanMPH: 40, SigmaMPH: 5, TauSec: 20, LoMPH: 10, HiMPH: 60},
				Highway:  SpeedClassConfig{MeanMPH: 65, SigmaMPH: 5, TauSec: 20, LoMPH: 40, HiMPH: 80},
			}
		}, "speed profile"},
		{"unknown density operator", func(c *Config) {
			c.Density = map[string]DensityConfig{"Sprint": {}}
		}, "unknown operator"},
		{"unknown density tech", func(c *Config) {
			c.Density = map[string]DensityConfig{"Verizon": {Avail: map[string]float64{"6G": 1}}}
		}, "unknown tech"},
		{"density knob above ceiling", func(c *Config) {
			c.Density = map[string]DensityConfig{"Verizon": {Avail: map[string]float64{"5G-mid": 11}}}
		}, "out of range"},
		{"negative density knob", func(c *Config) {
			c.Density = map[string]DensityConfig{"V": {RunLen: map[string]float64{"LTE": -0.5}}}
		}, "out of range"},
		{"unknown timezone", func(c *Config) { c.Timezone = "Atlantic" }, "unknown timezone"},
		{"inverted HO band", func(c *Config) {
			c.Shapes = &ShapeConfig{StaticOverDriving: 5, HOsPerMileLo: 4, HOsPerMileHi: 1, TMobileLead: 1.5, VzAttBand: 2.5}
		}, "shape bounds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mutate(&cfg)
			_, err := New(cfg)
			if err == nil {
				t.Fatalf("New accepted malformed config (%s)", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestParseStrict proves Parse round-trips a valid config and rejects
// unknown fields instead of silently dropping them.
func TestParseStrict(t *testing.T) {
	cfg := mmwaveDowntownConfig()
	raw, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Parse(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("Parse round-trip: %v", err)
	}
	if s.Name() != cfg.Name {
		t.Errorf("parsed name %q, want %q", s.Name(), cfg.Name)
	}
	if _, err := Parse(strings.NewReader(`{"name":"x","citties":[]}`)); err == nil {
		t.Error("Parse accepted an unknown field")
	}
	if _, err := Parse(strings.NewReader(`{`)); err == nil {
		t.Error("Parse accepted truncated JSON")
	}
}

// TestGenerateReproducible proves random:<seed> is a pure function of the
// scenario seed and differs across seeds.
func TestGenerateReproducible(t *testing.T) {
	a1, err := Generate(7)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Generate(7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a1.cfg, a2.cfg) {
		t.Error("Generate(7) differs between calls")
	}
	b, err := Generate(8)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a1.cfg, b.cfg) {
		t.Error("Generate(7) and Generate(8) produced identical configs")
	}
	if a1.Name() == b.Name() && reflect.DeepEqual(a1.cfg.Cities, b.cfg.Cities) {
		t.Error("distinct seeds share a route")
	}
}

// TestGenerateAlwaysValid sweeps seeds: every generated scenario must
// validate and compile.
func TestGenerateAlwaysValid(t *testing.T) {
	archs := map[string]bool{}
	for seed := int64(0); seed < 60; seed++ {
		s, err := Generate(seed)
		if err != nil {
			t.Fatalf("Generate(%d): %v", seed, err)
		}
		tb, err := s.Compile()
		if err != nil {
			t.Fatalf("Generate(%d).Compile: %v", seed, err)
		}
		if tb.Route.LengthKm() <= 0 {
			t.Fatalf("Generate(%d): zero-length route", seed)
		}
		for _, name := range archetypeNames {
			if strings.Contains(s.Name(), name) {
				archs[name] = true
			}
		}
	}
	if len(archs) != len(archetypeNames) {
		t.Errorf("60 seeds hit archetypes %v, want all of %v", archs, archetypeNames)
	}
}

// TestResolve covers the -scenario argument forms.
func TestResolve(t *testing.T) {
	if s, err := Resolve("paper"); err != nil || s.Name() != "paper" {
		t.Errorf("Resolve(paper) = %v, %v", s, err)
	}
	s, err := Resolve("random:42")
	if err != nil {
		t.Fatalf("Resolve(random:42): %v", err)
	}
	if !strings.HasPrefix(s.Name(), "random-42-") {
		t.Errorf("Resolve(random:42).Name() = %q", s.Name())
	}
	for _, bad := range []string{"random:x", "no-such-scenario", "random:"} {
		if _, err := Resolve(bad); err == nil {
			t.Errorf("Resolve(%q) succeeded", bad)
		}
	}
}

// TestApplySchedule proves schedule overrides only touch pinned phases.
func TestApplySchedule(t *testing.T) {
	cfg := campaign.DefaultConfig(1)
	s := MustLoad("commuter-loop") // pins Apps off, leaves the rest alone
	out := s.ApplySchedule(cfg)
	if out.EnableApps {
		t.Error("commuter-loop did not disable apps")
	}
	if !out.EnablePassive || !out.EnableStatic || !out.EnableSpeedTest {
		t.Error("commuter-loop touched phases it does not pin")
	}
	if out2 := MustLoad("paper").ApplySchedule(cfg); !reflect.DeepEqual(out2, cfg) {
		t.Error("paper scenario mutated the campaign config")
	}
}

// TestDensitiesResolve proves config density knobs land on the right
// operator/tech slots and absent knobs stay identity.
func TestDensitiesResolve(t *testing.T) {
	den := MustLoad("mountain-sparse").Densities()
	for op := range den {
		if den[op].Avail[2] != 0.5 { // 5G-low
			t.Errorf("op %d 5G-low avail = %v, want 0.5", op, den[op].Avail[2])
		}
		if den[op].Avail[0] != 1 || den[op].RunLen[3] != 1 {
			t.Errorf("op %d untouched knobs scaled: %+v", op, den[op])
		}
		if den[op].RunLen[0] != 1.5 { // LTE
			t.Errorf("op %d LTE runlen = %v, want 1.5", op, den[op].RunLen[0])
		}
	}
}

// TestFixedTimezone proves a pinned-zone scenario reports that zone at
// every route distance.
func TestFixedTimezone(t *testing.T) {
	tb := MustLoad("mmwave-downtown").MustCompile()
	for _, km := range []float64{0, tb.Route.LengthKm() / 2, tb.Route.LengthKm()} {
		if z := tb.Route.TimezoneAt(km); z != geo.Eastern {
			t.Errorf("TimezoneAt(%v) = %v, want Eastern", km, z)
		}
	}
}

func BenchmarkScenarioCompile(b *testing.B) {
	s := MustLoad("paper")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Compile(); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzScenarioConfig fuzzes the strict JSON parser: it must never panic,
// and any config it accepts must re-serialize and re-parse to an equally
// valid scenario (the parser's accept set is closed under round-trip).
func FuzzScenarioConfig(f *testing.F) {
	for _, name := range Names() {
		cfg := library[name]()
		raw, err := json.Marshal(cfg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(raw))
	}
	f.Add(`{"name":"x"}`)
	f.Add(`{"name":"x","cities":[{"name":"a","lat":1,"lon":2,"radius_km":3}]}`)
	f.Add(`{"name":"x","handover":{"verizon":{"hysteresis_frac":0.2,"elevation":{"idle:east":{"low":0.9}}}}}`)
	f.Add(`{"name":"x","handover":{"tmobile":{"eval_min_sec":16,"eval_max_sec":9}}}`)
	f.Fuzz(func(t *testing.T, raw string) {
		s, err := Parse(strings.NewReader(raw))
		if err != nil {
			return
		}
		again, err := json.Marshal(s.cfg)
		if err != nil {
			t.Fatalf("accepted config does not re-marshal: %v", err)
		}
		if _, err := Parse(bytes.NewReader(again)); err != nil {
			t.Fatalf("round-tripped config rejected: %v\noriginal: %s\nagain: %s", err, raw, again)
		}
	})
}
