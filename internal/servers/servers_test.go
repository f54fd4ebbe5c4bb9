package servers

import (
	"testing"

	"wheels/internal/geo"
	"wheels/internal/radio"
)

func TestRegistryLayout(t *testing.T) {
	r := NewRegistry(geo.NewRoute())
	if len(r.edges) != 5 {
		t.Fatalf("edge servers = %d, want 5", len(r.edges))
	}
	for _, s := range r.edges {
		if s.Kind != Edge {
			t.Errorf("edge server %s has kind %v", s.Name, s.Kind)
		}
	}
}

func TestCloudSelectionByTimezone(t *testing.T) {
	r := NewRegistry(geo.NewRoute())
	if s := r.CloudFor(geo.Pacific); s.Name != r.cloudWest.Name {
		t.Errorf("Pacific tests use %s, want California", s.Name)
	}
	if s := r.CloudFor(geo.Mountain); s.Name != r.cloudWest.Name {
		t.Errorf("Mountain tests use %s, want California", s.Name)
	}
	if s := r.CloudFor(geo.Central); s.Name != r.cloudEast.Name {
		t.Errorf("Central tests use %s, want Ohio", s.Name)
	}
	if s := r.CloudFor(geo.Eastern); s.Name != r.cloudEast.Name {
		t.Errorf("Eastern tests use %s, want Ohio", s.Name)
	}
}

func TestEdgeOnlyForVerizon(t *testing.T) {
	route := geo.NewRoute()
	r := NewRegistry(route)
	denver := geo.LatLon{Lat: 39.739, Lon: -104.990}
	if s := r.Select(radio.Verizon, denver, geo.Mountain); s.Kind != Edge {
		t.Errorf("Verizon in Denver selected %v, want edge", s.Name)
	}
	if s := r.Select(radio.TMobile, denver, geo.Mountain); s.Kind != Cloud {
		t.Errorf("T-Mobile in Denver selected %v, want cloud", s.Name)
	}
	// Mid-Nebraska: no edge city within range even for Verizon.
	nowhere := geo.LatLon{Lat: 40.9, Lon: -100.0}
	if s := r.Select(radio.Verizon, nowhere, geo.Central); s.Kind != Cloud {
		t.Errorf("Verizon on open highway selected %v, want cloud", s.Name)
	}
}

func TestNearestEdgeRadius(t *testing.T) {
	r := NewRegistry(geo.NewRoute())
	chicago := geo.LatLon{Lat: 41.878, Lon: -87.630}
	s, ok := r.NearestEdge(chicago)
	if !ok || s.City != "Chicago" {
		t.Errorf("NearestEdge(Chicago) = %v/%v, want the Chicago Wavelength server", s.City, ok)
	}
	if _, ok := r.NearestEdge(geo.LatLon{Lat: 40.9, Lon: -100.0}); ok {
		t.Error("NearestEdge matched in the middle of Nebraska")
	}
}

func TestPropagationRTT(t *testing.T) {
	r := NewRegistry(geo.NewRoute())
	boston := geo.LatLon{Lat: 42.360, Lon: -71.058}
	edge, ok := r.NearestEdge(boston)
	if !ok {
		t.Fatal("no edge server near Boston")
	}
	edgeRTT := PropagationRTTms(boston, edge)
	cloudRTT := PropagationRTTms(boston, r.CloudFor(geo.Eastern))
	if edgeRTT >= cloudRTT {
		t.Errorf("edge RTT %.1f ms not below cloud RTT %.1f ms", edgeRTT, cloudRTT)
	}
	if edgeRTT < 1 || edgeRTT > 10 {
		t.Errorf("in-city edge wire RTT = %.1f ms, want a few ms", edgeRTT)
	}
	// Cross-country worst case: LA to Ohio cloud should be tens of ms.
	la := geo.LatLon{Lat: 34.052, Lon: -118.244}
	far := PropagationRTTms(la, r.cloudEast)
	if far < 30 || far > 90 {
		t.Errorf("LA→Ohio wire RTT = %.1f ms, want 30-90", far)
	}
}
