package deploy

import (
	"testing"

	"wheels/internal/geo"
	"wheels/internal/radio"
	"wheels/internal/sim"
)

// BenchmarkAvailMask times the packed availability lookup the radio loop
// performs every tick.
func BenchmarkAvailMask(b *testing.B) {
	route := geo.NewRoute()
	d := NewUpToDensity(route, radio.TMobile, sim.NewRNG(23).Stream("deploy"), 0, DefaultDensity())
	total := route.LengthKm()
	km := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.AvailMask(km)
		km += 0.337
		if km >= total {
			km = 0
		}
	}
}

// TestAvailMaskAllocationFree pins the mask lookup — and the mask-derived
// queries the UE hot path uses — at zero heap allocations.
func TestAvailMaskAllocationFree(t *testing.T) {
	route := geo.NewRoute()
	d := NewUpToDensity(route, radio.Verizon, sim.NewRNG(23).Stream("deploy"), 0, DefaultDensity())
	km := 0.0
	allocs := testing.AllocsPerRun(100, func() {
		m := d.AvailMask(km)
		_ = m.Has(radio.NRMid)
		_, _ = m.Best()
		_, _ = d.CellAt(km, radio.LTE)
		km += 1.7
	})
	if allocs != 0 {
		t.Errorf("AvailMask path = %.1f allocs/op, want 0", allocs)
	}
}

// TestAvailMaskMatchesAvailable verifies the packed mask and the per-tech
// HasTech query answer identically along the whole route.
func TestAvailMaskMatchesAvailable(t *testing.T) {
	route := geo.NewRoute()
	d := NewUpToDensity(route, radio.TMobile, sim.NewRNG(23).Stream("deploy"), 0, DefaultDensity())
	for km := 0.0; km < route.LengthKm(); km += 0.25 {
		mask := d.AvailMask(km)
		for _, tech := range radio.Techs() {
			if d.HasTech(km, tech) != mask.Has(tech) {
				t.Fatalf("km %.2f: HasTech and mask disagree on %v", km, tech)
			}
		}
	}
}

// TestCellKeyRoundTrip checks the packed cell key preserves identity and
// renders the same string the Cell itself does.
func TestCellKeyRoundTrip(t *testing.T) {
	for _, op := range radio.Operators() {
		for _, tech := range radio.Techs() {
			for _, idx := range []int{0, 1, 7, 593, 1 << 20} {
				c := Cell{Op: op, Tech: tech, Index: idx}
				k := c.Key()
				if k.Op() != op || k.Tech() != tech || k.Index() != idx {
					t.Fatalf("key round trip lost identity: %v/%v/%d -> %v/%v/%d",
						op, tech, idx, k.Op(), k.Tech(), k.Index())
				}
				if k.String() != c.ID() {
					t.Fatalf("key string %q != cell ID %q", k.String(), c.ID())
				}
			}
		}
	}
	a := Cell{Op: radio.Verizon, Tech: radio.LTE, Index: 3}.Key()
	b := Cell{Op: radio.Verizon, Tech: radio.LTEA, Index: 3}.Key()
	if a == b {
		t.Error("keys of different technologies collide")
	}
}
