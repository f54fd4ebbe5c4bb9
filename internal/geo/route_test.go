package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHaversineKnownDistances(t *testing.T) {
	la := LatLon{34.052, -118.244}
	boston := LatLon{42.360, -71.058}
	d := Haversine(la, boston)
	// Great-circle LA–Boston is about 4,170 km.
	if d < 4100 || d < 0 || d > 4250 {
		t.Errorf("Haversine(LA, Boston) = %.0f km, want about 4170", d)
	}
	if got := Haversine(la, la); got != 0 {
		t.Errorf("Haversine(x, x) = %v, want 0", got)
	}
}

func TestHaversineSymmetry(t *testing.T) {
	if err := quick.Check(func(a1, o1, a2, o2 uint8) bool {
		p := LatLon{float64(a1)/4 - 30, float64(o1) - 128}
		q := LatLon{float64(a2)/4 - 30, float64(o2) - 128}
		return math.Abs(Haversine(p, q)-Haversine(q, p)) < 1e-9
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestRouteLengthMatchesPaper(t *testing.T) {
	r := NewRoute()
	// Table 1: total geographical distance travelled 5711+ km.
	if got := r.LengthKm(); got < 5650 || got > 5800 {
		t.Errorf("route length = %.0f km, want about 5711", got)
	}
}

// TestRouteReached: the states and cities a drive has entered grow with
// how far it got, from the first state and city at the start to all 14
// states and 10 cities of Table 1 at the end of the route.
func TestRouteReached(t *testing.T) {
	r := NewRoute()
	vegas := r.Legs[0].RoadKm
	for _, c := range []struct {
		km             float64
		states, cities int
	}{
		{0, 1, 1},
		{25, 1, 1},
		{vegas, 2, 2}, // CA, NV; Los Angeles, Las Vegas
		{r.LengthKm(), 14, 10},
	} {
		if s, n := r.Reached(c.km); s != c.states || n != c.cities {
			t.Errorf("Reached(%.0f) = %d states, %d cities, want %d, %d", c.km, s, n, c.states, c.cities)
		}
	}
	ps, pc := 0, 0
	for km := 0.0; km <= r.LengthKm(); km += 5 {
		s, c := r.Reached(km)
		if s < ps || c < pc {
			t.Fatalf("Reached(%.0f) = %d, %d fell below %d, %d", km, s, c, ps, pc)
		}
		ps, pc = s, c
	}
}

func TestRouteStatesAndDays(t *testing.T) {
	r := NewRoute()
	if got, _ := r.Reached(r.LengthKm()); got != 14 {
		t.Errorf("states = %d, want 14 (Table 1)", got)
	}
	if got := r.Days(); got != 8 {
		t.Errorf("days = %d, want 8", got)
	}
	if got := len(r.Cities); got != 10 {
		t.Errorf("major cities = %d, want 10 (Table 1)", got)
	}
}

func TestRouteEdgeCities(t *testing.T) {
	r := NewRoute()
	edges := r.EdgeCities()
	if len(edges) != 5 {
		t.Fatalf("edge cities = %d, want 5 (LA, Las Vegas, Denver, Chicago, Boston)", len(edges))
	}
	want := map[string]bool{"Los Angeles": true, "Las Vegas": true, "Denver": true, "Chicago": true, "Boston": true}
	for _, c := range edges {
		if !want[c.Name] {
			t.Errorf("unexpected edge city %q", c.Name)
		}
	}
}

func TestTimezoneProgression(t *testing.T) {
	r := NewRoute()
	if z := r.TimezoneAt(0); z != Pacific {
		t.Errorf("timezone at LA = %v, want Pacific", z)
	}
	if z := r.TimezoneAt(r.LengthKm() - 1); z != Eastern {
		t.Errorf("timezone at Boston = %v, want Eastern", z)
	}
	// Timezones must be non-decreasing along the eastbound route.
	prev := Pacific
	for km := 0.0; km < r.LengthKm(); km += 10 {
		z := r.TimezoneAt(km)
		if z < prev {
			t.Fatalf("timezone went backward at km %.0f: %v after %v", km, z, prev)
		}
		prev = z
	}
	// All four timezones are visited.
	seen := map[Timezone]bool{}
	for km := 0.0; km < r.LengthKm(); km += 5 {
		seen[r.TimezoneAt(km)] = true
	}
	if len(seen) != 4 {
		t.Errorf("visited %d timezones, want 4", len(seen))
	}
}

func TestRoadClassStructure(t *testing.T) {
	r := NewRoute()
	if c := r.RoadClassAt(0); c != RoadCity {
		t.Errorf("class at km 0 = %v, want city", c)
	}
	if c := r.RoadClassAt(15); c != RoadSuburban {
		t.Errorf("class at km 15 = %v, want suburban", c)
	}
	if c := r.RoadClassAt(100); c != RoadHighway {
		t.Errorf("class at km 100 = %v, want highway", c)
	}
	// Highway must dominate total distance.
	counts := map[RoadClass]int{}
	for km := 0.0; km < r.LengthKm(); km += 1 {
		counts[r.RoadClassAt(km)]++
	}
	total := counts[RoadCity] + counts[RoadSuburban] + counts[RoadHighway]
	if frac := float64(counts[RoadHighway]) / float64(total); frac < 0.6 {
		t.Errorf("highway fraction = %.2f, want > 0.6", frac)
	}
	if counts[RoadCity] == 0 || counts[RoadSuburban] == 0 {
		t.Error("route has no city or no suburban segments")
	}
}

func TestCityAt(t *testing.T) {
	r := NewRoute()
	c, ok := r.CityAreaAt(0)
	if !ok || c.Name != "Los Angeles" {
		t.Errorf("CityAreaAt(0) = %v, %v; want Los Angeles", c.Name, ok)
	}
	if _, ok := r.CityAreaAt(200); ok {
		t.Error("CityAreaAt(200 km) reported a city on open highway")
	}
	c, ok = r.CityAreaAt(r.LengthKm() - 1)
	if !ok || c.Name != "Boston" {
		t.Errorf("CityAreaAt(end) = %v, %v; want Boston", c.Name, ok)
	}
}

func TestDayRanges(t *testing.T) {
	r := NewRoute()
	var prevEnd float64
	for day := 1; day <= r.Days(); day++ {
		s, e, err := r.DayRangeKm(day)
		if err != nil {
			t.Fatalf("DayRangeKm(%d): %v", day, err)
		}
		if s != prevEnd {
			t.Errorf("day %d starts at %.1f, want %.1f (contiguous days)", day, s, prevEnd)
		}
		if e <= s {
			t.Errorf("day %d has non-positive span [%f, %f)", day, s, e)
		}
		prevEnd = e
	}
	if math.Abs(prevEnd-r.LengthKm()) > 1e-6 {
		t.Errorf("days cover %.1f km, route is %.1f km", prevEnd, r.LengthKm())
	}
	if _, _, err := r.DayRangeKm(99); err == nil {
		t.Error("DayRangeKm(99) succeeded, want error")
	}
}

func TestPosAtMonotoneLongitude(t *testing.T) {
	r := NewRoute()
	// The trip heads broadly east; longitude at the end must exceed start.
	if r.PosAt(r.LengthKm()).Lon <= r.PosAt(0).Lon {
		t.Error("route does not end east of its start")
	}
	// PosAt clamps out-of-range inputs.
	if got := r.PosAt(-5); got != r.PosAt(0) {
		t.Errorf("PosAt(-5) = %v, want clamp to start", got)
	}
}

func TestBinForSpeed(t *testing.T) {
	cases := []struct {
		mph  float64
		want SpeedBin
	}{{0, SpeedLow}, {19.9, SpeedLow}, {20, SpeedMid}, {59.9, SpeedMid}, {60, SpeedHigh}, {80, SpeedHigh}}
	for _, c := range cases {
		if got := BinForSpeed(c.mph); got != c.want {
			t.Errorf("BinForSpeed(%v) = %v, want %v", c.mph, got, c.want)
		}
	}
}

func TestCityAreaAt(t *testing.T) {
	r := NewRoute()
	// Los Angeles sits at the route start.
	if city, ok := r.CityAreaAt(3); !ok || city.Name != "Los Angeles" {
		t.Fatalf("CityAreaAt(3) = %v/%v, want Los Angeles", city.Name, ok)
	}
	// An interior city is reported on both sides of its leg boundary.
	boundary := r.Legs[0].RoadKm // Las Vegas
	for _, km := range []float64{boundary - 2, boundary + 2} {
		if city, ok := r.CityAreaAt(km); !ok || city.Name != "Las Vegas" {
			t.Fatalf("CityAreaAt(%v) = %v/%v, want Las Vegas", km, city.Name, ok)
		}
	}
	// Mid-leg positions are not in any city.
	if _, ok := r.CityAreaAt(boundary / 2); ok {
		t.Errorf("CityAreaAt(%v) reported a city in the middle of leg 1", boundary/2)
	}
}
