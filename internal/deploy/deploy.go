package deploy

import (
	"fmt"
	"math"

	"wheels/internal/geo"
	"wheels/internal/radio"
	"wheels/internal/sim"
)

// binKm is the spatial resolution of the availability fields.
const binKm = 0.1

// TechMask is the packed per-bin technology availability set: bit t is set
// when radio.Tech(t) is deployed in the bin. One byte replaces the
// per-query slice the availability API used to allocate, which is what
// keeps the per-tick radio loop allocation-free.
type TechMask uint8

// Has reports whether the technology is in the mask.
func (m TechMask) Has(t radio.Tech) bool { return m&(1<<uint(t)) != 0 }

// Best returns the most capable technology in the mask, or (LTE, false) for
// an empty mask. Technologies are ordered by ascending capability.
func (m TechMask) Best() (radio.Tech, bool) {
	for t := radio.Tech(radio.NumTechs - 1); t >= 0; t-- {
		if m.Has(t) {
			return t, true
		}
	}
	return radio.LTE, false
}

// Cell identifies one base station of one operator and technology. Cells of
// a technology are laid out along the route with the band's inter-site
// spacing and a lateral offset from the road.
type Cell struct {
	Op        radio.Operator
	Tech      radio.Tech
	Index     int     // sequence number along the route for this (op, tech)
	CenterKm  float64 // route distance of the point nearest the site
	LateralKm float64
}

// CellKey packs a cell's identity (operator, technology, route index) into
// one comparable word. The passive logger tracks the camped cell by key;
// the human-readable string form is derived only at dataset-export time.
type CellKey uint64

// Key returns the packed identity of the cell.
func (c Cell) Key() CellKey {
	return CellKey(uint64(c.Op)<<40 | uint64(c.Tech)<<32 | uint64(uint32(c.Index)))
}

// Op returns the operator encoded in the key.
func (k CellKey) Op() radio.Operator { return radio.Operator(k >> 40 & 0xff) }

// Tech returns the technology encoded in the key.
func (k CellKey) Tech() radio.Tech { return radio.Tech(k >> 32 & 0xff) }

// Index returns the route sequence number encoded in the key.
func (k CellKey) Index() int { return int(uint32(k)) }

// String renders the key in the stable "<op>-<tech>-<index>" form the
// dataset exports use.
func (k CellKey) String() string {
	return fmt.Sprintf("%s-%s-%d", k.Op().Short(), k.Tech(), k.Index())
}

// ID returns a globally unique cell identifier, stable across runs.
func (c Cell) ID() string { return c.Key().String() }

// lateralOffsetKm is the perpendicular distance from road to site per tech:
// mmWave sites hug the street; macro towers sit farther back.
func lateralOffsetKm(t radio.Tech) float64 {
	if t == radio.NRmmW {
		return 0.05
	}
	return 0.25
}

// Deployment is one operator's radio footprint along a route: a packed
// availability bitmask per route bin (spatially persistent runs whose
// density follows the calibrated tables) plus deterministic cell geometry.
type Deployment struct {
	Op    radio.Operator
	Route *geo.Route

	nbins int
	masks []TechMask

	// Per-technology band geometry, hoisted out of the per-tick loop so
	// serving-cell lookups don't re-derive radio.Bands each call.
	spacingKm [radio.NumTechs]float64
	lateralKm [radio.NumTechs]float64
}

// Density scales one operator's deployment away from the calibrated paper
// tables, per technology. Avail multiplies the local availability
// probability (clamped to the same 0.97 ceiling the tables obey); RunLen
// multiplies the mean coverage run length. All-ones means the paper's
// deployment exactly: scaling by 1.0 is a bit-exact no-op, so the paper
// scenario's coverage fields are byte-identical to an unscaled build.
// Scenarios use this to model denser mid-band/mmWave metros or sparser
// rural 5G without touching the calibration tables.
type Density struct {
	Avail  [radio.NumTechs]float64
	RunLen [radio.NumTechs]float64
}

// DefaultDensity returns the identity scaling (the paper's deployment).
func DefaultDensity() Density {
	var d Density
	for t := range d.Avail {
		d.Avail[t] = 1
		d.RunLen[t] = 1
	}
	return d
}

// New builds the operator's deployment along the route. All randomness
// derives from the stream, so the footprint is reproducible per seed.
func New(route *geo.Route, op radio.Operator, rng *sim.RNG) *Deployment {
	return NewUpTo(route, op, rng, 0)
}

// NewUpTo is New with the availability fields built only for the first
// maxKm of the route (maxKm <= 0 or past the route end means the whole
// route). The run-length walk in buildField is prefix-deterministic — bin i
// depends only on draws for bins ≤ i — so a truncated deployment's masks
// are bit-identical to the full build over every bin it has, and a campaign
// bounded by a KmLimit can skip simulating coverage for the days of route
// it will never drive. Callers must never query past maxKm: the bin clamp
// would silently return the edge bin's mask instead of the true one.
func NewUpTo(route *geo.Route, op radio.Operator, rng *sim.RNG, maxKm float64) *Deployment {
	return NewUpToDensity(route, op, rng, maxKm, DefaultDensity())
}

// NewUpToDensity is NewUpTo with the operator's deployment density scaled
// by den. The identity scaling reproduces NewUpTo bit for bit: every stream
// label and draw is unchanged, and ×1.0 on the probability and run-length
// mean leaves each draw's arguments exactly equal.
func NewUpToDensity(route *geo.Route, op radio.Operator, rng *sim.RNG, maxKm float64, den Density) *Deployment {
	lengthKm := route.LengthKm()
	if maxKm > 0 && maxKm < lengthKm {
		lengthKm = maxKm
	}
	d := &Deployment{
		Op:    op,
		Route: route,
		nbins: int(lengthKm/binKm) + 1,
	}
	d.masks = make([]TechMask, d.nbins)
	for _, t := range radio.Techs() {
		d.buildField(t, rng.Stream("field", op.String(), t.String()), den)
		d.spacingKm[t] = radio.Bands(op, t).CellSpacingKm
		d.lateralKm[t] = lateralOffsetKm(t)
	}
	return d
}

// buildField walks the route in binKm steps maintaining run-length state:
// the current covered/uncovered state persists for an exponential run, then
// re-draws from the local availability probability. This produces the
// fragmented, spatially correlated coverage the paper observed (Fig. 1).
// Covered bins set the technology's bit in the packed mask.
func (d *Deployment) buildField(t radio.Tech, rng *sim.RNG, den Density) {
	mean := runLengthKm[t] * den.RunLen[t]
	remaining := 0.0
	covered := false
	cur := d.Route.Cursor()
	bit := TechMask(1) << uint(t)
	for i := 0; i < d.nbins; i++ {
		km := float64(i) * binKm
		if remaining <= 0 {
			// The density scale applies after availability()'s internal
			// clamp, under the same 0.97 ceiling: with Avail == 1 the
			// multiply and the re-clamp are both exact no-ops.
			p := availability(d.Op, t, cur.RoadClassAt(km), cur.TimezoneAt(km)) * den.Avail[t]
			if p > availCeiling {
				p = availCeiling
			}
			covered = rng.Bool(p)
			remaining = rng.Exponential(mean)
			if remaining < binKm {
				remaining = binKm
			}
		}
		if covered {
			d.masks[i] |= bit
		}
		remaining -= binKm
	}
}

func (d *Deployment) bin(km float64) int {
	i := int(km / binKm)
	if i < 0 {
		return 0
	}
	if i >= d.nbins {
		return d.nbins - 1
	}
	return i
}

// AvailMask returns the packed set of technologies deployed at route
// distance km. This is the allocation-free form of Available.
func (d *Deployment) AvailMask(km float64) TechMask {
	return d.masks[d.bin(km)]
}

// HasTech reports whether the technology is deployed at route distance km.
func (d *Deployment) HasTech(km float64, t radio.Tech) bool {
	return d.masks[d.bin(km)].Has(t)
}

// SpacingKm returns the inter-site distance of the technology's cell grid,
// precomputed at construction.
func (d *Deployment) SpacingKm(t radio.Tech) float64 { return d.spacingKm[t] }

// CellAt returns the serving cell for the technology at route distance km
// and the UE's 2-D distance to it. The cell grid is deterministic: site i of
// a band sits at route distance (i+0.5)·spacing with the band's lateral
// offset, so cell identity is stable across runs and revisits.
func (d *Deployment) CellAt(km float64, t radio.Tech) (Cell, float64) {
	spacing := d.spacingKm[t]
	idx := int(km / spacing)
	if idx < 0 {
		idx = 0
	}
	center := (float64(idx) + 0.5) * spacing
	lat := d.lateralKm[t]
	dist := math.Hypot(km-center, lat)
	return Cell{Op: d.Op, Tech: t, Index: idx, CenterKm: center, LateralKm: lat}, dist
}
