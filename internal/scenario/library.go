package scenario

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"wheels/internal/geo"
)

// library maps scenario names to their config constructors. Constructors
// (not values) so each Load returns an independent config, and so the
// paper scenario always reflects geo.PaperRouteSpec — one source of truth.
var library = map[string]func() Config{
	"paper":           paperConfig,
	"dense-urban":     denseUrbanConfig,
	"interstate-only": interstateOnlyConfig,
	"mountain-sparse": mountainSparseConfig,
	"commuter-loop":   commuterLoopConfig,
	"mmwave-downtown": mmwaveDowntownConfig,
}

// Names returns the named scenarios in sorted order.
func Names() []string {
	out := make([]string, 0, len(library))
	for name := range library {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Load returns the named scenario, validated.
func Load(name string) (*Scenario, error) {
	mk, ok := library[name]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown scenario %q (have %s, or random:<seed>)", name, strings.Join(Names(), ", "))
	}
	return New(mk())
}

// Resolve turns a -scenario argument into a scenario: a library name, or
// "random:<seed>" for a procedurally generated one.
func Resolve(spec string) (*Scenario, error) {
	if rest, ok := strings.CutPrefix(spec, "random:"); ok {
		seed, err := strconv.ParseInt(rest, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("scenario: bad random seed %q: %w", rest, err)
		}
		return Generate(seed)
	}
	return Load(spec)
}

// fromRouteSpec lifts a geo.RouteSpec into config form losslessly: every
// float passes through untouched, so compiling the result reproduces the
// spec's route bit for bit.
func fromRouteSpec(name string, spec geo.RouteSpec) Config {
	cfg := Config{
		Name: name,
		Roads: RoadConfig{
			WindingFactor: spec.Bands.WindingFactor,
			CityKm:        spec.Bands.CityKm,
			SuburbKm:      spec.Bands.SuburbKm,
			TownKm:        spec.Bands.TownKm,
		},
		Speeds: &SpeedConfig{
			City:     speedClassFrom(spec.Speeds[geo.RoadCity]),
			Suburban: speedClassFrom(spec.Speeds[geo.RoadSuburban]),
			Highway:  speedClassFrom(spec.Speeds[geo.RoadHighway]),
		},
	}
	if spec.FixedZone != nil {
		cfg.Timezone = spec.FixedZone.String()
	}
	for _, c := range spec.Cities {
		cfg.Cities = append(cfg.Cities, CityConfig{
			Name: c.Name, Lat: c.Pos.Lat, Lon: c.Pos.Lon, Edge: c.Edge, RadiusKm: c.RadiusKm,
		})
	}
	for _, l := range spec.Legs {
		cfg.Legs = append(cfg.Legs, LegConfig{Day: l.Day, States: l.States, Towns: l.Towns})
	}
	return cfg
}

// paperConfig is the paper's LA → Boston itinerary, lifted from the geo
// layer's canonical spec. Compiling it is byte-identical to
// campaign.NewTestbed (pinned by TestPaperScenarioGoldenSeed23).
func paperConfig() Config {
	return fromRouteSpec("paper", geo.PaperRouteSpec())
}

// denseUrbanConfig is a two-day Los Angeles metro chain: short legs, wide
// city/suburban bands relative to leg length, boosted mid-band and mmWave
// density. Handover rates run far above the cross-country route's, so the
// HOs/mile band is widened upward.
func denseUrbanConfig() Config {
	return Config{
		Name: "dense-urban",
		Cities: []CityConfig{
			{Name: "Santa Monica", Lat: 34.020, Lon: -118.491, RadiusKm: 5},
			{Name: "Downtown LA", Lat: 34.052, Lon: -118.244, Edge: true, RadiusKm: 6},
			{Name: "Pasadena", Lat: 34.148, Lon: -118.144, RadiusKm: 4},
			{Name: "Burbank", Lat: 34.181, Lon: -118.309, RadiusKm: 4},
			{Name: "Hollywood", Lat: 34.093, Lon: -118.329, RadiusKm: 4},
			{Name: "Inglewood", Lat: 33.962, Lon: -118.353, RadiusKm: 4},
			{Name: "Long Beach", Lat: 33.770, Lon: -118.194, Edge: true, RadiusKm: 5},
		},
		Legs: []LegConfig{
			{Day: 1, States: []string{"CA"}, Towns: 1},
			{Day: 1, States: []string{"CA"}, Towns: 0},
			{Day: 1, States: []string{"CA"}, Towns: 0},
			{Day: 2, States: []string{"CA"}, Towns: 0},
			{Day: 2, States: []string{"CA"}, Towns: 0},
			{Day: 2, States: []string{"CA"}, Towns: 1},
		},
		Roads: RoadConfig{WindingFactor: 1.35, CityKm: 4, SuburbKm: 8, TownKm: 5},
		Density: map[string]DensityConfig{
			"Verizon":  {Avail: map[string]float64{"5G-mid": 1.8, "5G-mmWave": 4}, RunLen: map[string]float64{"5G-mmWave": 2}},
			"T-Mobile": {Avail: map[string]float64{"5G-mid": 1.5, "5G-mmWave": 3}, RunLen: map[string]float64{"5G-mid": 1.5}},
			"AT&T":     {Avail: map[string]float64{"5G-mid": 2, "5G-mmWave": 3}},
		},
		Timezone: "Pacific",
		Shapes: &ShapeConfig{
			StaticOverDriving: 3, HOsPerMileLo: 1, HOsPerMileHi: 10,
			TMobileLead: 1.3, VzAttBand: 3,
		},
	}
}

// interstateOnlyConfig is a five-day Denver → Pittsburgh interstate chain:
// tiny city bands, no intermediate towns, nearly all highway driving, so
// the handover rate sits below the paper route's band.
func interstateOnlyConfig() Config {
	return Config{
		Name: "interstate-only",
		Cities: []CityConfig{
			{Name: "Denver", Lat: 39.739, Lon: -104.990, Edge: true, RadiusKm: 6},
			{Name: "Kansas City", Lat: 39.100, Lon: -94.578, RadiusKm: 6},
			{Name: "St Louis", Lat: 38.627, Lon: -90.199, RadiusKm: 6},
			{Name: "Indianapolis", Lat: 39.768, Lon: -86.158, RadiusKm: 6},
			{Name: "Columbus", Lat: 39.961, Lon: -82.999, RadiusKm: 5},
			{Name: "Pittsburgh", Lat: 40.441, Lon: -79.996, Edge: true, RadiusKm: 6},
		},
		Legs: []LegConfig{
			{Day: 1, States: []string{"CO", "KS", "MO"}, Towns: 0},
			{Day: 2, States: []string{"MO", "IL"}, Towns: 0},
			{Day: 3, States: []string{"IL", "IN"}, Towns: 0},
			{Day: 4, States: []string{"IN", "OH"}, Towns: 0},
			{Day: 5, States: []string{"OH", "PA"}, Towns: 0},
		},
		Roads: RoadConfig{WindingFactor: 1.15, CityKm: 2, SuburbKm: 5, TownKm: 3},
		Speeds: &SpeedConfig{
			City:     SpeedClassConfig{MeanMPH: 13, SigmaMPH: 7, TauSec: 25, LoMPH: 0, HiMPH: 32},
			Suburban: SpeedClassConfig{MeanMPH: 45, SigmaMPH: 8, TauSec: 40, LoMPH: 10, HiMPH: 60},
			Highway:  SpeedClassConfig{MeanMPH: 72, SigmaMPH: 5, TauSec: 60, LoMPH: 50, HiMPH: 84},
		},
		Shapes: &ShapeConfig{
			StaticOverDriving: 5, HOsPerMileLo: 0.3, HOsPerMileHi: 2.5,
			TMobileLead: 1.5, VzAttBand: 2.5,
		},
	}
}

// mountainSparseConfig is a three-day Salt Lake City → Albuquerque mountain
// drive pinned to the Mountain timezone: winding roads, 5G availability
// scaled well below the tables, longer LTE coverage runs.
func mountainSparseConfig() Config {
	sparse5G := DensityConfig{
		Avail:  map[string]float64{"5G-low": 0.5, "5G-mid": 0.35, "5G-mmWave": 0.1},
		RunLen: map[string]float64{"LTE": 1.5, "LTE-A": 1.2},
	}
	return Config{
		Name: "mountain-sparse",
		Cities: []CityConfig{
			{Name: "Salt Lake City", Lat: 40.761, Lon: -111.891, RadiusKm: 7},
			{Name: "Provo", Lat: 40.234, Lon: -111.659, RadiusKm: 5},
			{Name: "Price", Lat: 39.599, Lon: -110.810, RadiusKm: 4},
			{Name: "Grand Junction", Lat: 39.064, Lon: -108.551, RadiusKm: 5},
			{Name: "Montrose", Lat: 38.478, Lon: -107.876, RadiusKm: 4},
			{Name: "Durango", Lat: 37.275, Lon: -107.880, RadiusKm: 4},
			{Name: "Albuquerque", Lat: 35.084, Lon: -106.651, Edge: true, RadiusKm: 7},
		},
		Legs: []LegConfig{
			{Day: 1, States: []string{"UT"}, Towns: 1},
			{Day: 1, States: []string{"UT"}, Towns: 1},
			{Day: 2, States: []string{"UT", "CO"}, Towns: 2},
			{Day: 2, States: []string{"CO"}, Towns: 1},
			{Day: 3, States: []string{"CO"}, Towns: 1},
			{Day: 3, States: []string{"CO", "NM"}, Towns: 2},
		},
		Roads: RoadConfig{WindingFactor: 1.45, CityKm: 5, SuburbKm: 15, TownKm: 8},
		Density: map[string]DensityConfig{
			"Verizon": sparse5G, "T-Mobile": sparse5G, "AT&T": sparse5G,
		},
		Timezone: "Mountain",
		Shapes: &ShapeConfig{
			StaticOverDriving: 5, HOsPerMileLo: 0.5, HOsPerMileHi: 3.5,
			TMobileLead: 1.3, VzAttBand: 3,
		},
	}
}

// commuterLoopConfig is a single-day Chicago metro commuter chain pinned to
// the Central timezone, with the app battery disabled: a short repeated
// drive measuring throughput/latency and handovers, not the full killer-app
// schedule.
func commuterLoopConfig() Config {
	off := false
	return Config{
		Name: "commuter-loop",
		Cities: []CityConfig{
			{Name: "Chicago Loop", Lat: 41.878, Lon: -87.630, Edge: true, RadiusKm: 6},
			{Name: "Evanston", Lat: 42.045, Lon: -87.688, RadiusKm: 4},
			{Name: "Schaumburg", Lat: 42.033, Lon: -88.083, RadiusKm: 4},
			{Name: "Naperville", Lat: 41.750, Lon: -88.153, RadiusKm: 4},
			{Name: "Joliet", Lat: 41.525, Lon: -88.082, RadiusKm: 4},
			{Name: "Hammond", Lat: 41.583, Lon: -87.500, RadiusKm: 4},
		},
		Legs: []LegConfig{
			{Day: 1, States: []string{"IL"}, Towns: 0},
			{Day: 1, States: []string{"IL"}, Towns: 1},
			{Day: 1, States: []string{"IL"}, Towns: 1},
			{Day: 1, States: []string{"IL"}, Towns: 0},
			{Day: 1, States: []string{"IL", "IN"}, Towns: 1},
		},
		Roads:    RoadConfig{WindingFactor: 1.3, CityKm: 5, SuburbKm: 10, TownKm: 6},
		Timezone: "Central",
		Schedule: &ScheduleConfig{Apps: &off},
		Shapes: &ShapeConfig{
			StaticOverDriving: 3, HOsPerMileLo: 1, HOsPerMileHi: 9,
			TMobileLead: 1.3, VzAttBand: 3,
		},
	}
}

// mmwaveDowntownConfig is a two-day dense New York downtown crawl pinned to
// the Eastern timezone: legs a few km long, city bands shrunk to match,
// mmWave availability and run length scaled far above the tables. This is
// the scenario built to break route-specific invariants — 5G share ratios
// and handover bands look nothing like a cross-country drive here.
func mmwaveDowntownConfig() Config {
	mmwBoost := DensityConfig{
		Avail:  map[string]float64{"5G-mid": 2, "5G-mmWave": 8},
		RunLen: map[string]float64{"5G-mmWave": 3},
	}
	return Config{
		Name: "mmwave-downtown",
		Cities: []CityConfig{
			{Name: "Battery Park", Lat: 40.703, Lon: -74.017, Edge: true, RadiusKm: 2},
			{Name: "Midtown", Lat: 40.754, Lon: -73.984, RadiusKm: 2.5},
			{Name: "Harlem", Lat: 40.812, Lon: -73.946, RadiusKm: 2},
			{Name: "Yankee Stadium", Lat: 40.830, Lon: -73.926, RadiusKm: 1.5},
			{Name: "Flushing", Lat: 40.768, Lon: -73.833, RadiusKm: 2},
			{Name: "Downtown Brooklyn", Lat: 40.693, Lon: -73.990, Edge: true, RadiusKm: 2.5},
		},
		Legs: []LegConfig{
			{Day: 1, States: []string{"NY"}, Towns: 0},
			{Day: 1, States: []string{"NY"}, Towns: 0},
			{Day: 1, States: []string{"NY"}, Towns: 0},
			{Day: 2, States: []string{"NY"}, Towns: 0},
			{Day: 2, States: []string{"NY"}, Towns: 0},
		},
		Roads: RoadConfig{WindingFactor: 1.5, CityKm: 1.5, SuburbKm: 2.5, TownKm: 1},
		Speeds: &SpeedConfig{
			City:     SpeedClassConfig{MeanMPH: 10, SigmaMPH: 6, TauSec: 20, LoMPH: 0, HiMPH: 28},
			Suburban: SpeedClassConfig{MeanMPH: 24, SigmaMPH: 8, TauSec: 30, LoMPH: 4, HiMPH: 45},
			Highway:  SpeedClassConfig{MeanMPH: 45, SigmaMPH: 8, TauSec: 45, LoMPH: 20, HiMPH: 62},
		},
		Density: map[string]DensityConfig{
			"Verizon": mmwBoost, "T-Mobile": mmwBoost, "AT&T": mmwBoost,
		},
		Timezone: "Eastern",
		Shapes: &ShapeConfig{
			StaticOverDriving: 2, HOsPerMileLo: 2, HOsPerMileHi: 15,
			TMobileLead: 1.1, VzAttBand: 4,
		},
	}
}
