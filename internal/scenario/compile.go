package scenario

import (
	"fmt"

	"wheels/internal/analysis"
	"wheels/internal/campaign"
	"wheels/internal/deploy"
	"wheels/internal/geo"
	"wheels/internal/radio"
)

// Scenario is a validated scenario definition. The only way to obtain one
// is through New/Parse/Load/Generate, so holding a *Scenario is proof the
// config passed validation; Compile can then fail only on the structural
// route checks it shares with geo.NewRouteFrom.
type Scenario struct {
	cfg Config
}

// Name returns the scenario's name.
func (s *Scenario) Name() string { return s.cfg.Name }

// RouteSpec lowers the scenario's route sections into the geo layer's
// declarative form.
func (s *Scenario) RouteSpec() geo.RouteSpec {
	spec := geo.RouteSpec{
		Bands: geo.RoadBands{
			WindingFactor: s.cfg.Roads.WindingFactor,
			CityKm:        s.cfg.Roads.CityKm,
			SuburbKm:      s.cfg.Roads.SuburbKm,
			TownKm:        s.cfg.Roads.TownKm,
		},
		Speeds: geo.SpeedProfile{
			geo.RoadCity:     speedParamsFrom(s.cfg.Speeds.City),
			geo.RoadSuburban: speedParamsFrom(s.cfg.Speeds.Suburban),
			geo.RoadHighway:  speedParamsFrom(s.cfg.Speeds.Highway),
		},
	}
	spec.FixedZone, _ = parseTimezone(s.cfg.Timezone) // validated
	for _, c := range s.cfg.Cities {
		spec.Cities = append(spec.Cities, geo.City{
			Name:     c.Name,
			Pos:      geo.LatLon{Lat: c.Lat, Lon: c.Lon},
			Edge:     c.Edge,
			RadiusKm: c.RadiusKm,
		})
	}
	for _, l := range s.cfg.Legs {
		spec.Legs = append(spec.Legs, geo.LegSpec{Day: l.Day, States: l.States, Towns: l.Towns})
	}
	return spec
}

func speedParamsFrom(p SpeedClassConfig) geo.SpeedParams {
	return geo.SpeedParams{MeanMPH: p.MeanMPH, SigmaMPH: p.SigmaMPH, TauSec: p.TauSec, LoMPH: p.LoMPH, HiMPH: p.HiMPH}
}

// Densities resolves the per-operator deployment scaling, identity for
// operators and technologies the config does not mention.
func (s *Scenario) Densities() [radio.NumOperators]deploy.Density {
	var out [radio.NumOperators]deploy.Density
	for i := range out {
		out[i] = deploy.DefaultDensity()
	}
	for opName, d := range s.cfg.Density {
		op, _ := parseOperator(opName) // validated
		for techName, scale := range d.Avail {
			t, _ := parseTech(techName)
			out[op].Avail[t] = scale
		}
		for techName, scale := range d.RunLen {
			t, _ := parseTech(techName)
			out[op].RunLen[t] = scale
		}
	}
	return out
}

// ShapeParams returns the shape-check thresholds this scenario's geometry
// implies (the paper defaults unless the config overrode them).
func (s *Scenario) ShapeParams() analysis.ShapeParams {
	c := s.cfg.Shapes // normalized, never nil
	return analysis.ShapeParams{
		StaticOverDriving: c.StaticOverDriving,
		HOsPerMileLo:      c.HOsPerMileLo,
		HOsPerMileHi:      c.HOsPerMileHi,
		TMobileLead:       c.TMobileLead,
		VzAttBand:         c.VzAttBand,
	}
}

// ApplySchedule overlays the scenario's test-schedule mix onto a campaign
// config: only the phases the scenario explicitly pins change.
func (s *Scenario) ApplySchedule(cfg campaign.Config) campaign.Config {
	sch := s.cfg.Schedule
	if sch == nil {
		return cfg
	}
	if sch.Apps != nil {
		cfg.EnableApps = *sch.Apps
	}
	if sch.Passive != nil {
		cfg.EnablePassive = *sch.Passive
	}
	if sch.Static != nil {
		cfg.EnableStatic = *sch.Static
	}
	if sch.SpeedTest != nil {
		cfg.EnableSpeedTest = *sch.SpeedTest
	}
	return cfg
}

// Compile builds the immutable campaign.Testbed for this scenario: the
// compiled route, the edge-server registry derived from it, the scenario
// name for checkpoint/report grouping, and the deployment densities. The
// testbed is shared read-only across every seed of a fleet, so
// compilation cost is paid once per scenario, not per campaign.
func (s *Scenario) Compile() (*campaign.Testbed, error) {
	route, err := geo.NewRouteFrom(s.RouteSpec())
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.cfg.Name, err)
	}
	tb := campaign.NewTestbedFor(route)
	tb.Scenario = s.cfg.Name
	tb.Density = s.Densities()
	tb.Handover = s.HandoverConfigs()
	return tb, nil
}
