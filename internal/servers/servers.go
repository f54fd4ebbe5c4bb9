// Package servers models the application server side of the testbed (§3,
// Appendix B): AWS EC2 cloud instances in California and Ohio, plus Amazon
// Wavelength edge servers embedded in Verizon's network in five cities
// (Los Angeles, Las Vegas, Denver, Chicago, Boston).
package servers

import (
	"wheels/internal/geo"
	"wheels/internal/radio"
)

// Kind distinguishes remote cloud instances from in-network edge servers.
type Kind int

const (
	Cloud Kind = iota
	Edge
)

// String returns "cloud" or "edge".
func (k Kind) String() string {
	if k == Edge {
		return "edge"
	}
	return "cloud"
}

// Server is one application server.
type Server struct {
	Name string
	Kind Kind
	Pos  geo.LatLon
	City string // edge servers only
}

// Registry holds the deployed servers and implements the paper's selection
// policy: Verizon uses the local Wavelength server when driving through one
// of the five edge cities and cloud otherwise; T-Mobile and AT&T always use
// cloud. Cloud selection follows the timezone split: the California
// instances serve Pacific/Mountain tests, the Ohio instances serve
// Central/Eastern.
type Registry struct {
	cloudWest Server
	cloudEast Server
	edges     []Server
}

// EdgeRadiusKm is how close (great-circle) the vehicle must be to an edge
// city for the Wavelength server to be used. It covers the city and its
// approaches, matching the paper's "in each of these five cities".
const EdgeRadiusKm = 60

// NewRegistry builds the testbed's server deployment for the given route.
func NewRegistry(route *geo.Route) *Registry {
	r := &Registry{
		cloudWest: Server{Name: "ec2-us-west (California)", Kind: Cloud, Pos: geo.LatLon{Lat: 37.35, Lon: -121.95}},
		cloudEast: Server{Name: "ec2-us-east (Ohio)", Kind: Cloud, Pos: geo.LatLon{Lat: 40.10, Lon: -83.20}},
	}
	for _, c := range route.EdgeCities() {
		r.edges = append(r.edges, Server{
			Name: "wavelength-" + c.Name,
			Kind: Edge,
			Pos:  c.Pos,
			City: c.Name,
		})
	}
	return r
}

// CloudFor returns the cloud server used for tests in the given timezone.
func (r *Registry) CloudFor(zone geo.Timezone) Server {
	if zone == geo.Pacific || zone == geo.Mountain {
		return r.cloudWest
	}
	return r.cloudEast
}

// Select returns the server a test would use for the given operator at the
// given position and timezone.
func (r *Registry) Select(op radio.Operator, pos geo.LatLon, zone geo.Timezone) Server {
	if op == radio.Verizon {
		if s, ok := r.NearestEdge(pos); ok {
			return s
		}
	}
	return r.CloudFor(zone)
}

// NearestEdge returns the closest edge server if within EdgeRadiusKm.
func (r *Registry) NearestEdge(pos geo.LatLon) (Server, bool) {
	best := Server{}
	bestD := EdgeRadiusKm + 1.0
	for _, s := range r.edges {
		if d := geo.Haversine(pos, s.Pos); d < bestD {
			best, bestD = s, d
		}
	}
	return best, bestD <= EdgeRadiusKm
}

// PropagationRTTms returns the round-trip wire latency between the UE
// position and a server: great-circle distance over fiber at ~2/3 c, times
// a routing-stretch factor, plus a fixed core/peering overhead. Edge servers
// sit inside the operator network, skipping the Internet path.
func PropagationRTTms(pos geo.LatLon, s Server) float64 {
	d := geo.Haversine(pos, s.Pos)
	const fiberKmPerMs = 200.0 // ~2/3 of c, one way
	stretch := 1.7             // routing indirection
	core := 6.0                // core + peering + server stack, ms
	if s.Kind == Edge {
		stretch = 1.2
		core = 1.5
	}
	return 2*d*stretch/fiberKmPerMs + core
}
