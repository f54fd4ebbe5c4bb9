package geo

import (
	"fmt"
	"sort"
)

// City is a major city visited on the trip. Static baseline measurements
// (Fig. 3a) and Verizon's Wavelength edge servers are tied to cities.
type City struct {
	Name string
	Pos  LatLon
	// Edge reports whether an Amazon Wavelength edge server is available in
	// this city (LA, Las Vegas, Denver, Chicago, Boston per §3).
	Edge bool
	// RadiusKm is the extent of city-class driving around the center.
	RadiusKm float64
}

// Leg is one city-to-city stretch of the route.
type Leg struct {
	From, To  string
	FromPos   LatLon
	ToPos     LatLon
	RoadKm    float64 // driven road distance (great-circle × winding factor)
	Day       int     // 1-based trip day on which the leg is driven
	States    []string
	MidTownKm []float64 // distances (from leg start) of intermediate towns
	startKm   float64   // cumulative route distance at leg start
}

// RoadBands parameterizes a route's road-class geometry. These were
// package-level constants calibrated to the paper's itinerary; every route
// now carries its own so scenarios (dense metro loops, pure interstate
// chains) can reshape the city/suburban/highway split.
type RoadBands struct {
	// WindingFactor inflates great-circle distance to road distance.
	WindingFactor float64
	// CityKm and SuburbKm bound the road-class bands at each end of a leg:
	// city within CityKm of an endpoint, suburban within SuburbKm.
	CityKm   float64
	SuburbKm float64
	// TownKm is the width of the suburban band around each intermediate town.
	TownKm float64
}

// PaperRoadBands returns the paper route's calibrated bands. The winding
// factor lands the total route length at the paper's 5711+ km.
func PaperRoadBands() RoadBands {
	return RoadBands{WindingFactor: 1.2318, CityKm: 9.0, SuburbKm: 22.0, TownKm: 14.0}
}

// SpeedParams are the Gauss–Markov speed-profile parameters for one road
// class: mean/sigma/clamp bounds in mph, correlation time in seconds.
type SpeedParams struct {
	MeanMPH  float64
	SigmaMPH float64
	TauSec   float64
	LoMPH    float64
	HiMPH    float64
}

// SpeedProfile holds a route's speed parameters, indexed by RoadClass.
type SpeedProfile [3]SpeedParams

// PaperSpeedProfile returns the paper trip's speed model: city driving lands
// mostly in the paper's 0–20 mph bin, suburban in 20–60, interstate in 60+.
func PaperSpeedProfile() SpeedProfile {
	return SpeedProfile{
		RoadCity:     {MeanMPH: 13, SigmaMPH: 7, TauSec: 25, LoMPH: 0, HiMPH: 32},
		RoadSuburban: {MeanMPH: 42, SigmaMPH: 9, TauSec: 40, LoMPH: 8, HiMPH: 58},
		RoadHighway:  {MeanMPH: 68, SigmaMPH: 5.5, TauSec: 60, LoMPH: 42, HiMPH: 82},
	}
}

// LegSpec declares one leg of a route: the trip day it is driven on, the
// states it crosses, and how many intermediate towns break up the highway.
// Leg i of a RouteSpec runs Cities[i] → Cities[i+1].
type LegSpec struct {
	Day    int
	States []string
	Towns  int
}

// RouteSpec is the declarative route definition NewRouteFrom compiles: the
// waypoint cities, per-leg day/state/town annotations, the road-class band
// geometry, and the speed profile. The scenario subsystem builds these;
// PaperRouteSpec is the paper's itinerary expressed in the same form.
type RouteSpec struct {
	Cities []City
	Legs   []LegSpec // len(Cities)-1 entries
	Bands  RoadBands
	Speeds SpeedProfile
	// FixedZone, when non-nil, pins the whole route into one timezone
	// (metro-scale scenarios never cross a zone line); nil derives the
	// zone from longitude along the continental-US interstate boundaries.
	FixedZone *Timezone
}

// Route is a compiled driving route: an immutable chain of legs with
// road-class bands and a speed profile, answering positional queries by
// route distance. The paper's LA → Boston itinerary is one instance
// (NewRoute); scenarios compile others through NewRouteFrom.
type Route struct {
	Cities []City
	Legs   []Leg
	Bands  RoadBands
	Speeds SpeedProfile

	fixedZone *Timezone
	total     float64
}

// PaperRouteSpec returns the paper's route as a declarative spec: Los
// Angeles to Boston via Las Vegas, Salt Lake City, Denver, Omaha, Chicago,
// Indianapolis, Cleveland, and Rochester, driven over 8 days
// (08/08/2022 – 08/15/2022).
func PaperRouteSpec() RouteSpec {
	return RouteSpec{
		Cities: []City{
			{Name: "Los Angeles", Pos: LatLon{34.052, -118.244}, Edge: true, RadiusKm: 12},
			{Name: "Las Vegas", Pos: LatLon{36.170, -115.140}, Edge: true, RadiusKm: 9},
			{Name: "Salt Lake City", Pos: LatLon{40.761, -111.891}, RadiusKm: 8},
			{Name: "Denver", Pos: LatLon{39.739, -104.990}, Edge: true, RadiusKm: 10},
			{Name: "Omaha", Pos: LatLon{41.257, -95.934}, RadiusKm: 7},
			{Name: "Chicago", Pos: LatLon{41.878, -87.630}, Edge: true, RadiusKm: 12},
			{Name: "Indianapolis", Pos: LatLon{39.768, -86.158}, RadiusKm: 8},
			{Name: "Cleveland", Pos: LatLon{41.499, -81.694}, RadiusKm: 8},
			{Name: "Rochester", Pos: LatLon{43.157, -77.615}, RadiusKm: 7},
			{Name: "Boston", Pos: LatLon{42.360, -71.058}, Edge: true, RadiusKm: 10},
		},
		Legs: []LegSpec{
			{Day: 1, States: []string{"CA", "NV"}, Towns: 2},
			{Day: 2, States: []string{"NV", "AZ", "UT"}, Towns: 3},
			{Day: 3, States: []string{"UT", "WY", "CO"}, Towns: 3},
			{Day: 4, States: []string{"CO", "NE"}, Towns: 4},
			{Day: 5, States: []string{"NE", "IA", "IL"}, Towns: 4},
			{Day: 6, States: []string{"IL", "IN"}, Towns: 2},
			{Day: 6, States: []string{"IN", "OH"}, Towns: 2},
			{Day: 7, States: []string{"OH", "PA", "NY"}, Towns: 2},
			{Day: 8, States: []string{"NY", "MA"}, Towns: 3},
		},
		Bands:  PaperRoadBands(),
		Speeds: PaperSpeedProfile(),
	}
}

// NewRoute constructs the paper's route. It is NewRouteFrom over
// PaperRouteSpec, which is structurally valid by construction.
func NewRoute() *Route {
	r, err := NewRouteFrom(PaperRouteSpec())
	if err != nil {
		panic("geo: paper route spec invalid: " + err.Error())
	}
	return r
}

// NewRouteFrom compiles a declarative route spec. The returned route is
// immutable and safe to share. Structural errors (leg/city count mismatch,
// degenerate legs, day gaps, inverted bands) are reported rather than
// silently producing a route whose positional queries misbehave; the
// scenario layer validates richer semantic constraints before calling this.
func NewRouteFrom(spec RouteSpec) (*Route, error) {
	if len(spec.Cities) < 2 {
		return nil, fmt.Errorf("geo: route needs at least 2 cities, got %d", len(spec.Cities))
	}
	if len(spec.Legs) != len(spec.Cities)-1 {
		return nil, fmt.Errorf("geo: %d cities need %d legs, got %d",
			len(spec.Cities), len(spec.Cities)-1, len(spec.Legs))
	}
	b := spec.Bands
	if b.WindingFactor < 1 {
		return nil, fmt.Errorf("geo: winding factor %.3f < 1 (roads cannot be shorter than the great circle)", b.WindingFactor)
	}
	if b.CityKm <= 0 || b.TownKm <= 0 || b.SuburbKm < b.CityKm {
		return nil, fmt.Errorf("geo: road bands city=%.1f suburb=%.1f town=%.1f km malformed (need city > 0, town > 0, suburb ≥ city)", b.CityKm, b.SuburbKm, b.TownKm)
	}
	for class, p := range spec.Speeds {
		if p.SigmaMPH <= 0 || p.TauSec <= 0 || p.LoMPH < 0 || !(p.LoMPH <= p.MeanMPH && p.MeanMPH <= p.HiMPH) {
			return nil, fmt.Errorf("geo: %s speed profile %+v malformed (need lo ≤ mean ≤ hi, sigma > 0, tau > 0)", RoadClass(class), p)
		}
	}
	seen := map[string]bool{}
	for _, c := range spec.Cities {
		if c.Name == "" {
			return nil, fmt.Errorf("geo: city with empty name")
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("geo: duplicate city name %q (city identity keys the static batteries and edge servers)", c.Name)
		}
		seen[c.Name] = true
	}
	day := 1
	for i, l := range spec.Legs {
		if i == 0 && l.Day != 1 {
			return nil, fmt.Errorf("geo: first leg is driven on day %d, want day 1", l.Day)
		}
		if l.Day != day && l.Day != day+1 {
			return nil, fmt.Errorf("geo: leg %d jumps from day %d to day %d (days must be contiguous)", i, day, l.Day)
		}
		day = l.Day
		if l.Towns < 0 {
			return nil, fmt.Errorf("geo: leg %d has %d towns", i, l.Towns)
		}
	}

	r := &Route{
		Cities:    spec.Cities,
		Bands:     spec.Bands,
		Speeds:    spec.Speeds,
		fixedZone: spec.FixedZone,
	}
	var cum float64
	for i, ls := range spec.Legs {
		from, to := spec.Cities[i], spec.Cities[i+1]
		road := Haversine(from.Pos, to.Pos) * b.WindingFactor
		if road <= 2*b.CityKm {
			return nil, fmt.Errorf("geo: leg %s → %s is %.1f km, shorter than its two %.1f km city bands (zero-length or degenerate leg)",
				from.Name, to.Name, road, b.CityKm)
		}
		leg := Leg{
			From:    from.Name,
			To:      to.Name,
			FromPos: from.Pos,
			ToPos:   to.Pos,
			RoadKm:  road,
			Day:     ls.Day,
			States:  ls.States,
			startKm: cum,
		}
		// Place intermediate towns evenly between the suburban bands.
		usable := road - 2*b.SuburbKm
		for t := 1; t <= ls.Towns; t++ {
			leg.MidTownKm = append(leg.MidTownKm,
				b.SuburbKm+usable*float64(t)/float64(ls.Towns+1))
		}
		r.Legs = append(r.Legs, leg)
		cum += road
	}
	r.total = cum
	return r, nil
}

// LengthKm returns the total road length of the route.
func (r *Route) LengthKm() float64 { return r.total }

// LengthMiles returns the total road length in miles.
func (r *Route) LengthMiles() float64 { return r.total / KmPerMile }

// Days returns the number of trip days.
func (r *Route) Days() int { return r.Legs[len(r.Legs)-1].Day }

// Counties estimates the number of counties crossed (Table 1 reports
// "100+"): US counties along the interstate corridors average ~45-55 km of
// road each, with one extra for each major-city core.
func (r *Route) Counties() int {
	const countyKm = 50.0
	n := 0
	for _, l := range r.Legs {
		per := int(l.RoadKm / countyKm)
		if per < 1 {
			per = 1
		}
		n += per
	}
	return n + len(r.Cities)
}

// Reached returns how many distinct states and cities a drive that stops at
// route distance km has entered. A leg's states split its road distance
// evenly, in the order listed; a city counts once the drive enters its
// city band (the first city from the start). At LengthKm it is every state
// and every city.
func (r *Route) Reached(km float64) (states, cities int) {
	seen := map[string]bool{}
	cities = 1
	for _, l := range r.Legs {
		for i, s := range l.States {
			if km >= l.startKm+l.RoadKm*float64(i)/float64(len(l.States)) {
				seen[s] = true
			}
		}
		if km >= l.startKm+l.RoadKm-r.Bands.CityKm {
			cities++
		}
	}
	return len(seen), cities
}

// legAt returns the leg containing route distance km and the offset into it.
func (r *Route) legAt(km float64) (*Leg, float64) {
	if km < 0 {
		km = 0
	}
	if km >= r.total {
		last := &r.Legs[len(r.Legs)-1]
		return last, last.RoadKm
	}
	i := sort.Search(len(r.Legs), func(i int) bool {
		return r.Legs[i].startKm+r.Legs[i].RoadKm > km
	})
	leg := &r.Legs[i]
	return leg, km - leg.startKm
}

// posOf interpolates the coordinate at offset off into a leg along the
// leg's great-circle chord.
func posOf(leg *Leg, off float64) LatLon {
	return Lerp(leg.FromPos, leg.ToPos, off/leg.RoadKm)
}

// roadClassOf classifies offset off into a leg using the route's bands:
// city within CityKm of a leg endpoint, suburban within SuburbKm of an
// endpoint or TownKm/2 of an intermediate town, highway otherwise.
func (r *Route) roadClassOf(leg *Leg, off float64) RoadClass {
	b := &r.Bands
	end := leg.RoadKm
	switch {
	case off < b.CityKm || end-off < b.CityKm:
		return RoadCity
	case off < b.SuburbKm || end-off < b.SuburbKm:
		return RoadSuburban
	}
	for _, t := range leg.MidTownKm {
		if off > t-b.TownKm/2 && off < t+b.TownKm/2 {
			return RoadSuburban
		}
	}
	return RoadHighway
}

// cityAreaOf resolves the city whose urban area contains offset off into a
// leg.
func (r *Route) cityAreaOf(leg *Leg, off float64) (City, bool) {
	if off < r.Bands.CityKm {
		return r.cityByName(leg.From), true
	}
	if leg.RoadKm-off < r.Bands.CityKm {
		return r.cityByName(leg.To), true
	}
	return City{}, false
}

// zoneAt maps a position to its timezone under the route's timezone layout.
func (r *Route) zoneAt(pos LatLon) Timezone {
	if r.fixedZone != nil {
		return *r.fixedZone
	}
	return timezoneForLon(pos.Lon)
}

// PosAt returns the coordinate at route distance km, interpolating along the
// leg's great-circle chord.
func (r *Route) PosAt(km float64) LatLon {
	leg, off := r.legAt(km)
	return posOf(leg, off)
}

// TimezoneAt returns the timezone at route distance km.
func (r *Route) TimezoneAt(km float64) Timezone {
	return r.zoneAt(r.PosAt(km))
}

// RoadClassAt returns the road class at route distance km: city within
// Bands.CityKm of a leg endpoint, suburban within Bands.SuburbKm of an
// endpoint or Bands.TownKm/2 of an intermediate town, highway otherwise.
func (r *Route) RoadClassAt(km float64) RoadClass {
	leg, off := r.legAt(km)
	return r.roadClassOf(leg, off)
}

// CityAreaAt returns the city whose urban area contains route distance km,
// if any. Only leg endpoints count: intermediate towns are not major cities.
func (r *Route) CityAreaAt(km float64) (City, bool) {
	leg, off := r.legAt(km)
	return r.cityAreaOf(leg, off)
}

// Cursor answers the same positional queries as Route but memoizes the
// current leg, so a caller advancing monotonically along the route (the
// drive-trace builder, deployment construction, the campaign's per-test KPI
// join) pays O(1) amortized per lookup instead of a sort.Search per call.
// Every query returns exactly what the corresponding Route method returns.
// A Cursor is not safe for concurrent use; derive one per goroutine.
type Cursor struct {
	r   *Route
	leg int
}

// Cursor returns a new positional cursor starting at the route origin.
func (r *Route) Cursor() *Cursor { return &Cursor{r: r} }

// legAt mirrors Route.legAt with the memoized leg as the starting point.
// Backward jumps (rare: a caller rewinding) fall back to the binary search.
func (c *Cursor) legAt(km float64) (*Leg, float64) {
	if km < 0 {
		km = 0
	}
	r := c.r
	if km >= r.total {
		last := &r.Legs[len(r.Legs)-1]
		return last, last.RoadKm
	}
	if km < r.Legs[c.leg].startKm {
		c.leg = sort.Search(len(r.Legs), func(i int) bool {
			return r.Legs[i].startKm+r.Legs[i].RoadKm > km
		})
	}
	for c.leg+1 < len(r.Legs) && km >= r.Legs[c.leg].startKm+r.Legs[c.leg].RoadKm {
		c.leg++
	}
	leg := &r.Legs[c.leg]
	return leg, km - leg.startKm
}

// PosAt returns the coordinate at route distance km.
func (c *Cursor) PosAt(km float64) LatLon {
	leg, off := c.legAt(km)
	return posOf(leg, off)
}

// TimezoneAt returns the timezone at route distance km.
func (c *Cursor) TimezoneAt(km float64) Timezone {
	return c.r.zoneAt(c.PosAt(km))
}

// RoadClassAt returns the road class at route distance km.
func (c *Cursor) RoadClassAt(km float64) RoadClass {
	leg, off := c.legAt(km)
	return c.r.roadClassOf(leg, off)
}

// CityAreaAt returns the city whose urban area contains route distance km,
// if any.
func (c *Cursor) CityAreaAt(km float64) (City, bool) {
	leg, off := c.legAt(km)
	return c.r.cityAreaOf(leg, off)
}

// DayAt returns the 1-based trip day for route distance km.
func (r *Route) DayAt(km float64) int {
	leg, _ := r.legAt(km)
	return leg.Day
}

// DayRangeKm returns the [start, end) route-distance interval driven on the
// given 1-based day.
func (r *Route) DayRangeKm(day int) (start, end float64, err error) {
	start, end = -1, -1
	for _, l := range r.Legs {
		if l.Day == day {
			if start < 0 {
				start = l.startKm
			}
			end = l.startKm + l.RoadKm
		}
	}
	if start < 0 {
		return 0, 0, fmt.Errorf("geo: no legs on day %d (trip has %d days)", day, r.Days())
	}
	return start, end, nil
}

func (r *Route) cityByName(name string) City {
	for _, c := range r.Cities {
		if c.Name == name {
			return c
		}
	}
	return City{Name: name}
}

// EdgeCities returns the cities hosting Wavelength edge servers.
func (r *Route) EdgeCities() []City {
	var out []City
	for _, c := range r.Cities {
		if c.Edge {
			out = append(out, c)
		}
	}
	return out
}
