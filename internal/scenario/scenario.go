// Package scenario is the declarative layer between "a measurement
// campaign" and "the paper's measurement campaign": a scenario names a
// route (explicit city waypoints with per-leg day/state/town annotations),
// its road-class band geometry and speed profile, per-operator deployment
// density scaling, a timezone layout, a test-schedule mix, and the shape
// thresholds its geometry implies. A validated scenario compiles into the
// immutable campaign.Testbed the engines already consume — the tick engines
// never learn scenarios exist, and the `paper` scenario compiles to a
// testbed whose campaign output is byte-identical to the hardcoded route's
// (pinned by TestPaperScenarioGoldenSeed23).
package scenario

import (
	"fmt"
	"math"
	"strings"

	"wheels/internal/analysis"
	"wheels/internal/geo"
	"wheels/internal/radio"
)

// CityConfig is one waypoint of a scenario route.
type CityConfig struct {
	Name     string  `json:"name"`
	Lat      float64 `json:"lat"`
	Lon      float64 `json:"lon"`
	Edge     bool    `json:"edge,omitempty"`
	RadiusKm float64 `json:"radius_km"`
}

// LegConfig annotates the leg from city i to city i+1.
type LegConfig struct {
	Day    int      `json:"day"`
	States []string `json:"states,omitempty"`
	Towns  int      `json:"towns"`
}

// RoadConfig is the route's road-class band geometry (geo.RoadBands in
// config form). A zero value normalizes to the paper's bands.
type RoadConfig struct {
	WindingFactor float64 `json:"winding_factor"`
	CityKm        float64 `json:"city_km"`
	SuburbKm      float64 `json:"suburb_km"`
	TownKm        float64 `json:"town_km"`
}

// SpeedClassConfig is one road class's Gauss–Markov speed parameters.
type SpeedClassConfig struct {
	MeanMPH  float64 `json:"mean_mph"`
	SigmaMPH float64 `json:"sigma_mph"`
	TauSec   float64 `json:"tau_sec"`
	LoMPH    float64 `json:"lo_mph"`
	HiMPH    float64 `json:"hi_mph"`
}

// SpeedConfig is the per-road-class speed profile. A nil entry set
// normalizes to the paper's profile.
type SpeedConfig struct {
	City     SpeedClassConfig `json:"city"`
	Suburban SpeedClassConfig `json:"suburban"`
	Highway  SpeedClassConfig `json:"highway"`
}

// DensityConfig scales one operator's deployment per technology, keyed by
// the technology's canonical name ("LTE", "LTE-A", "5G-low", "5G-mid",
// "5G-mmWave"). Missing technologies keep the identity scale 1.0.
type DensityConfig struct {
	Avail  map[string]float64 `json:"avail,omitempty"`
	RunLen map[string]float64 `json:"runlen,omitempty"`
}

// ScheduleConfig overrides the campaign's test-schedule mix. Nil fields
// leave the campaign Config's own setting untouched, so a scenario only
// pins the phases it cares about.
type ScheduleConfig struct {
	Apps      *bool `json:"apps,omitempty"`
	Passive   *bool `json:"passive,omitempty"`
	Static    *bool `json:"static,omitempty"`
	SpeedTest *bool `json:"speedtest,omitempty"`
}

// ShapeConfig overrides the route-derived shape-check thresholds
// (analysis.ShapeParams in config form). A zero value normalizes to the
// paper defaults.
type ShapeConfig struct {
	StaticOverDriving float64 `json:"static_over_driving"`
	HOsPerMileLo      float64 `json:"hos_per_mile_lo"`
	HOsPerMileHi      float64 `json:"hos_per_mile_hi"`
	TMobileLead       float64 `json:"tmobile_lead"`
	VzAttBand         float64 `json:"vz_att_band"`
}

// Config is the full declarative scenario definition. It is plain data:
// JSON-round-trippable, comparable by value via reflect, and carrying no
// behavior until compiled through New.
type Config struct {
	Name   string       `json:"name"`
	Cities []CityConfig `json:"cities"`
	Legs   []LegConfig  `json:"legs"`
	Roads  RoadConfig   `json:"roads"`
	Speeds *SpeedConfig `json:"speeds,omitempty"`
	// Density maps operator name ("Verizon", "T-Mobile", "AT&T", or the
	// short forms "V"/"T"/"A") to that operator's deployment scaling.
	Density map[string]DensityConfig `json:"density,omitempty"`
	// Timezone is "" or "lon" for longitude-derived zones, or one of
	// "Pacific", "Mountain", "Central", "Eastern" to pin the whole route.
	Timezone string          `json:"timezone,omitempty"`
	Schedule *ScheduleConfig `json:"schedule,omitempty"`
	Shapes   *ShapeConfig    `json:"shapes,omitempty"`
	// Handover maps operator name to a partial handover-policy override
	// (see PolicyConfig); operators not mentioned keep their default
	// (paper-measured) policy.
	Handover map[string]PolicyConfig `json:"handover,omitempty"`
}

// maxDensityScale bounds density knobs: a scale above this turns the
// coverage model into a step function and is almost certainly a typo.
const maxDensityScale = 10.0

// New normalizes and validates a config, returning the compiled-checkable
// scenario. The input config is not mutated.
func New(cfg Config) (*Scenario, error) {
	norm := normalize(cfg)
	if err := validate(norm); err != nil {
		return nil, err
	}
	return &Scenario{cfg: norm}, nil
}

// normalize fills defaulted sections with the paper's values so validation
// and compilation see a fully-specified config.
func normalize(cfg Config) Config {
	if cfg.Roads == (RoadConfig{}) {
		b := geo.PaperRoadBands()
		cfg.Roads = RoadConfig{WindingFactor: b.WindingFactor, CityKm: b.CityKm, SuburbKm: b.SuburbKm, TownKm: b.TownKm}
	}
	if cfg.Speeds == nil {
		p := geo.PaperSpeedProfile()
		cfg.Speeds = &SpeedConfig{
			City:     speedClassFrom(p[geo.RoadCity]),
			Suburban: speedClassFrom(p[geo.RoadSuburban]),
			Highway:  speedClassFrom(p[geo.RoadHighway]),
		}
	}
	if cfg.Shapes == nil || *cfg.Shapes == (ShapeConfig{}) {
		d := analysis.DefaultShapeParams()
		cfg.Shapes = &ShapeConfig{
			StaticOverDriving: d.StaticOverDriving,
			HOsPerMileLo:      d.HOsPerMileLo,
			HOsPerMileHi:      d.HOsPerMileHi,
			TMobileLead:       d.TMobileLead,
			VzAttBand:         d.VzAttBand,
		}
	}
	return cfg
}

func speedClassFrom(p geo.SpeedParams) SpeedClassConfig {
	return SpeedClassConfig{MeanMPH: p.MeanMPH, SigmaMPH: p.SigmaMPH, TauSec: p.TauSec, LoMPH: p.LoMPH, HiMPH: p.HiMPH}
}

// parseOperator resolves an operator by full or short name.
func parseOperator(s string) (radio.Operator, bool) {
	for _, op := range radio.Operators() {
		if s == op.String() || s == op.Short() {
			return op, true
		}
	}
	return 0, false
}

// parseTech resolves a technology by canonical name.
func parseTech(s string) (radio.Tech, bool) {
	for _, t := range radio.Techs() {
		if s == t.String() {
			return t, true
		}
	}
	return 0, false
}

// parseTimezone resolves a Config.Timezone value; ok is false for invalid
// names. ("", "lon") return (nil, true): longitude-derived zones.
func parseTimezone(s string) (*geo.Timezone, bool) {
	if s == "" || s == "lon" {
		return nil, true
	}
	for z := geo.Timezone(0); z < geo.NumTimezones; z++ {
		if s == z.String() {
			zone := z
			return &zone, true
		}
	}
	return nil, false
}

// validate rejects malformed configs with an error naming the first
// offending field. It assumes a normalized config (bands/speeds/shapes
// filled in).
func validate(cfg Config) error {
	if cfg.Name == "" {
		return fmt.Errorf("scenario: config has no name")
	}
	if strings.ContainsAny(cfg.Name, " \t\n,") {
		return fmt.Errorf("scenario: name %q contains whitespace or commas (names appear in -scenario lists and checkpoint rows)", cfg.Name)
	}
	if len(cfg.Cities) < 2 {
		return fmt.Errorf("scenario %s: needs at least 2 cities, got %d", cfg.Name, len(cfg.Cities))
	}
	if len(cfg.Legs) != len(cfg.Cities)-1 {
		return fmt.Errorf("scenario %s: %d cities need %d legs, got %d", cfg.Name, len(cfg.Cities), len(cfg.Cities)-1, len(cfg.Legs))
	}
	seen := map[string]bool{}
	for i, c := range cfg.Cities {
		if c.Name == "" {
			return fmt.Errorf("scenario %s: city %d has no name", cfg.Name, i)
		}
		if seen[c.Name] {
			return fmt.Errorf("scenario %s: duplicate city name %q", cfg.Name, c.Name)
		}
		seen[c.Name] = true
		if !isFinite(c.Lat, c.Lon, c.RadiusKm) || c.Lat < -90 || c.Lat > 90 || c.Lon < -180 || c.Lon > 180 {
			return fmt.Errorf("scenario %s: city %q at (%v, %v) is off the globe", cfg.Name, c.Name, c.Lat, c.Lon)
		}
		if c.RadiusKm <= 0 {
			return fmt.Errorf("scenario %s: city %q radius %v km must be positive", cfg.Name, c.Name, c.RadiusKm)
		}
	}

	b := cfg.Roads
	if !isFinite(b.WindingFactor, b.CityKm, b.SuburbKm, b.TownKm) || b.WindingFactor < 1 {
		return fmt.Errorf("scenario %s: winding factor %v must be a finite value ≥ 1", cfg.Name, b.WindingFactor)
	}
	if b.CityKm <= 0 || b.TownKm <= 0 || b.SuburbKm < b.CityKm {
		return fmt.Errorf("scenario %s: road bands city=%v suburb=%v town=%v km malformed (need city > 0, town > 0, suburb ≥ city)", cfg.Name, b.CityKm, b.SuburbKm, b.TownKm)
	}

	day := 1
	for i, l := range cfg.Legs {
		if i == 0 && l.Day != 1 {
			return fmt.Errorf("scenario %s: first leg on day %d, want day 1", cfg.Name, l.Day)
		}
		if l.Day != day && l.Day != day+1 {
			return fmt.Errorf("scenario %s: leg %d jumps from day %d to day %d (day gap)", cfg.Name, i, day, l.Day)
		}
		day = l.Day
		if l.Towns < 0 {
			return fmt.Errorf("scenario %s: leg %d has %d towns", cfg.Name, i, l.Towns)
		}
		from, to := cfg.Cities[i], cfg.Cities[i+1]
		road := geo.Haversine(geo.LatLon{Lat: from.Lat, Lon: from.Lon}, geo.LatLon{Lat: to.Lat, Lon: to.Lon}) * b.WindingFactor
		if road <= 2*b.CityKm {
			return fmt.Errorf("scenario %s: leg %s → %s is %.1f km, within its own %0.f km city bands (zero-length leg)", cfg.Name, from.Name, to.Name, road, b.CityKm)
		}
		if l.Towns > 0 && road <= 2*b.SuburbKm {
			return fmt.Errorf("scenario %s: leg %s → %s is %.1f km, too short for intermediate towns outside its %.0f km suburban bands", cfg.Name, from.Name, to.Name, road, b.SuburbKm)
		}
	}

	for class, p := range map[string]SpeedClassConfig{"city": cfg.Speeds.City, "suburban": cfg.Speeds.Suburban, "highway": cfg.Speeds.Highway} {
		if !isFinite(p.MeanMPH, p.SigmaMPH, p.TauSec, p.LoMPH, p.HiMPH) ||
			p.SigmaMPH <= 0 || p.TauSec <= 0 || p.LoMPH < 0 || !(p.LoMPH <= p.MeanMPH && p.MeanMPH <= p.HiMPH) {
			return fmt.Errorf("scenario %s: %s speed profile %+v malformed (need 0 ≤ lo ≤ mean ≤ hi, sigma > 0, tau > 0)", cfg.Name, class, p)
		}
	}

	for opName, d := range cfg.Density {
		if _, ok := parseOperator(opName); !ok {
			return fmt.Errorf("scenario %s: density for unknown operator %q", cfg.Name, opName)
		}
		for kind, m := range map[string]map[string]float64{"avail": d.Avail, "runlen": d.RunLen} {
			for techName, scale := range m {
				if _, ok := parseTech(techName); !ok {
					return fmt.Errorf("scenario %s: %s %s density for unknown tech %q", cfg.Name, opName, kind, techName)
				}
				if !isFinite(scale) || scale < 0 || scale > maxDensityScale {
					return fmt.Errorf("scenario %s: %s %s density %s=%v out of range [0, %v]", cfg.Name, opName, kind, techName, scale, maxDensityScale)
				}
			}
		}
	}

	if _, ok := parseTimezone(cfg.Timezone); !ok {
		return fmt.Errorf("scenario %s: unknown timezone %q (want empty, \"lon\", or a zone name)", cfg.Name, cfg.Timezone)
	}

	if err := validatePolicies(cfg); err != nil {
		return err
	}

	s := cfg.Shapes
	if !isFinite(s.StaticOverDriving, s.HOsPerMileLo, s.HOsPerMileHi, s.TMobileLead, s.VzAttBand) ||
		s.StaticOverDriving <= 0 || s.TMobileLead <= 0 || s.VzAttBand < 1 ||
		s.HOsPerMileLo < 0 || s.HOsPerMileLo >= s.HOsPerMileHi {
		return fmt.Errorf("scenario %s: shape bounds %+v malformed (need positive ratios, vz_att_band ≥ 1, hos lo < hi)", cfg.Name, *s)
	}
	return nil
}

func isFinite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
