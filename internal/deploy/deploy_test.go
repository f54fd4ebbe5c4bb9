package deploy

import (
	"testing"

	"wheels/internal/geo"
	"wheels/internal/radio"
	"wheels/internal/sim"
)

func testDeployment(t *testing.T, op radio.Operator) *Deployment {
	t.Helper()
	return New(geo.NewRoute(), op, sim.NewRNG(23).Stream("deploy"))
}

// CoverageFraction returns the fraction of route bins where the technology
// is deployed: the calibration tests' view of a deployment.
func (d *Deployment) CoverageFraction(t radio.Tech) float64 {
	n := 0
	for _, m := range d.masks {
		if m.Has(t) {
			n++
		}
	}
	return float64(n) / float64(d.nbins)
}

func TestDeterminism(t *testing.T) {
	a := testDeployment(t, radio.Verizon)
	b := testDeployment(t, radio.Verizon)
	for km := 0.0; km < a.Route.LengthKm(); km += 1.7 {
		for _, tech := range radio.Techs() {
			if a.HasTech(km, tech) != b.HasTech(km, tech) {
				t.Fatalf("deployments diverge at km %.1f tech %v", km, tech)
			}
		}
	}
}

func TestCoverageOrderingAcrossOperators(t *testing.T) {
	// Fig. 2a: T-Mobile leads 5G coverage by a wide margin; Verizon leads
	// mmWave; AT&T leads LTE-A.
	frac := func(op radio.Operator, tech radio.Tech) float64 {
		return testDeployment(t, op).CoverageFraction(tech)
	}
	if tm, v := frac(radio.TMobile, radio.NRMid), frac(radio.Verizon, radio.NRMid); tm < 2*v {
		t.Errorf("T-Mobile mid-band coverage %.2f not well above Verizon %.2f", tm, v)
	}
	if v, tm := frac(radio.Verizon, radio.NRmmW), frac(radio.TMobile, radio.NRmmW); v <= tm {
		t.Errorf("Verizon mmWave coverage %.3f not above T-Mobile %.3f", v, tm)
	}
	if a, v := frac(radio.ATT, radio.LTEA), frac(radio.Verizon, radio.LTEA); a <= v {
		t.Errorf("AT&T LTE-A coverage %.2f not above Verizon %.2f", a, v)
	}
	if a, tm := frac(radio.ATT, radio.NRMid), frac(radio.TMobile, radio.NRMid); a >= tm/4 {
		t.Errorf("AT&T mid-band coverage %.3f not far below T-Mobile %.3f", a, tm)
	}
}

func TestCoverageBands(t *testing.T) {
	// Availability of mid-band for T-Mobile should land in the ballpark of
	// the paper's 38% high-speed-5G connected share.
	tm := testDeployment(t, radio.TMobile).CoverageFraction(radio.NRMid)
	if tm < 0.25 || tm > 0.55 {
		t.Errorf("T-Mobile mid-band availability = %.2f, want 0.25-0.55", tm)
	}
	// LTE is the near-universal fallback for everyone.
	for _, op := range radio.Operators() {
		if lte := testDeployment(t, op).CoverageFraction(radio.LTE); lte < 0.9 {
			t.Errorf("%v LTE availability = %.2f, want > 0.9", op, lte)
		}
	}
}

func TestMmWaveConcentratedInCities(t *testing.T) {
	d := testDeployment(t, radio.Verizon)
	r := d.Route
	cityHits, citySamples := 0, 0
	hwyHits, hwySamples := 0, 0
	for km := 0.0; km < r.LengthKm(); km += binKm {
		switch r.RoadClassAt(km) {
		case geo.RoadCity:
			citySamples++
			if d.HasTech(km, radio.NRmmW) {
				cityHits++
			}
		case geo.RoadHighway:
			hwySamples++
			if d.HasTech(km, radio.NRmmW) {
				hwyHits++
			}
		}
	}
	cityFrac := float64(cityHits) / float64(citySamples)
	hwyFrac := float64(hwyHits) / float64(hwySamples)
	if cityFrac < 10*hwyFrac {
		t.Errorf("mmWave city availability %.3f not ≫ highway %.4f", cityFrac, hwyFrac)
	}
}

func TestZoneDiversity(t *testing.T) {
	// Fig. 2c: T-Mobile's mid-band is much stronger in the Pacific zone;
	// AT&T's 5G collapses in the Mountain zone.
	tm := testDeployment(t, radio.TMobile)
	att := testDeployment(t, radio.ATT)
	zoneFrac := func(d *Deployment, tech radio.Tech, zone geo.Timezone) float64 {
		hits, n := 0, 0
		for km := 0.0; km < d.Route.LengthKm(); km += binKm {
			if d.Route.TimezoneAt(km) != zone {
				continue
			}
			n++
			if d.HasTech(km, tech) {
				hits++
			}
		}
		return float64(hits) / float64(n)
	}
	if p, m := zoneFrac(tm, radio.NRMid, geo.Pacific), zoneFrac(tm, radio.NRMid, geo.Mountain); p <= m {
		t.Errorf("T-Mobile mid-band: Pacific %.2f not above Mountain %.2f", p, m)
	}
	attMountain := zoneFrac(att, radio.NRLow, geo.Mountain) + zoneFrac(att, radio.NRMid, geo.Mountain)
	attEastern := zoneFrac(att, radio.NRLow, geo.Eastern) + zoneFrac(att, radio.NRMid, geo.Eastern)
	if attMountain >= attEastern/2 {
		t.Errorf("AT&T 5G: Mountain %.2f not far below Eastern %.2f", attMountain, attEastern)
	}
}

func TestCellGeometry(t *testing.T) {
	d := testDeployment(t, radio.TMobile)
	spacing := radio.Bands(radio.TMobile, radio.NRMid).CellSpacingKm
	c1, dist1 := d.CellAt(spacing*0.5, radio.NRMid) // at the site
	if dist1 > lateralOffsetKm(radio.NRMid)+1e-9 {
		t.Errorf("distance at cell center = %.3f, want lateral offset %.3f", dist1, lateralOffsetKm(radio.NRMid))
	}
	c2, dist2 := d.CellAt(spacing*0.999, radio.NRMid) // cell edge
	if c1.Index != c2.Index {
		t.Error("positions within one spacing mapped to different cells")
	}
	if dist2 <= dist1 {
		t.Error("distance at cell edge not above distance at center")
	}
	c3, _ := d.CellAt(spacing*1.001, radio.NRMid)
	if c3.Index != c1.Index+1 {
		t.Errorf("next cell index = %d, want %d", c3.Index, c1.Index+1)
	}
	if c1.ID() == c3.ID() {
		t.Error("adjacent cells share an ID")
	}
	if c1.ID() != "T-5G-mid-0" {
		t.Errorf("cell ID = %q, want T-5G-mid-0", c1.ID())
	}
}

func TestAvailableSortedAndConsistent(t *testing.T) {
	d := testDeployment(t, radio.Verizon)
	for km := 0.0; km < d.Route.LengthKm(); km += 3.3 {
		m := d.AvailMask(km)
		best, ok := m.Best()
		if ok != (m != 0) {
			t.Fatalf("Best(%0.f) ok = %v for mask %b", km, ok, m)
		}
		for tech := best + 1; ok && tech < radio.NumTechs; tech++ {
			if m.Has(tech) {
				t.Fatalf("Best(%0.f) = %v, but the mask also has %v", km, best, tech)
			}
		}
	}
}

func TestFragmentation(t *testing.T) {
	// Coverage must be fragmented: mid-band coverage should flip state many
	// times across the route (Fig. 1 shows highly fragmented technology
	// bands), not be one contiguous blob.
	d := testDeployment(t, radio.TMobile)
	flips := 0
	prev := d.HasTech(0, radio.NRMid)
	for km := binKm; km < d.Route.LengthKm(); km += binKm {
		cur := d.HasTech(km, radio.NRMid)
		if cur != prev {
			flips++
		}
		prev = cur
	}
	if flips < 200 {
		t.Errorf("mid-band coverage flips = %d, want heavily fragmented (>= 200)", flips)
	}
}
