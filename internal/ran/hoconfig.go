package ran

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"wheels/internal/geo"
	"wheels/internal/radio"
)

// TrafficClass buckets the six Traffic profiles into the four classes the
// elevation policy actually distinguishes: idle keep-alive, light probes,
// backlogged downlink, backlogged uplink. The application profiles share
// their bulk class's policy (AppDL with BacklogDL, AppUL with BacklogUL),
// exactly as the elevationProb tables always treated them.
type TrafficClass int

const (
	ClassIdle TrafficClass = iota
	ClassProbe
	ClassBulkDL
	ClassBulkUL

	NumTrafficClasses = 4
)

// String names the traffic class.
func (c TrafficClass) String() string {
	switch c {
	case ClassIdle:
		return "idle"
	case ClassProbe:
		return "probe"
	case ClassBulkDL:
		return "bulk-dl"
	case ClassBulkUL:
		return "bulk-ul"
	default:
		return "unknown"
	}
}

// Class maps a traffic profile to its elevation-policy class.
func (tr Traffic) Class() TrafficClass {
	switch tr {
	case Idle:
		return ClassIdle
	case RTTProbe:
		return ClassProbe
	case BacklogUL, AppUL:
		return ClassBulkUL
	default: // BacklogDL, AppDL
		return ClassBulkDL
	}
}

// Zone halves for the elevation table: T-Mobile's idle policy differs
// between the west and east halves of the country (Figs. 1c vs 1f), so the
// table carries one column per half. Central and Eastern are "east",
// matching the zone test elevationProb always used.
const (
	ZoneWest = 0
	ZoneEast = 1

	NumZoneHalves = 2
)

// zoneHalf maps a timezone to its elevation-table column.
func zoneHalf(zone geo.Timezone) int {
	if zone == geo.Central || zone == geo.Eastern {
		return ZoneEast
	}
	return ZoneWest
}

// Elevation tiers, in the order chooseTech walks them (fastest first).
const (
	TiermmW = 0
	TierMid = 1
	TierLow = 2

	NumElevTiers = 3
)

// elevTier maps a 5G technology to its row in the elevation table.
func elevTier(t radio.Tech) int {
	switch t {
	case radio.NRmmW:
		return TiermmW
	case radio.NRMid:
		return TierMid
	default: // radio.NRLow
		return TierLow
	}
}

// HandoverConfig is one operator's complete handover/elevation policy: the
// A3-style hysteresis margin, the evaluation cadence, the interruption
// duration distribution, and the full elevation-probability table. It is
// the configurable form of the constants and switch tables that used to be
// hardcoded in this package; DefaultHandoverConfig reproduces them exactly,
// so a zero-customization config is byte-identical to the historical
// behavior (the seed-23 golden pins this).
//
// The struct is comparable (fixed-size arrays, no pointers), so configs can
// be compared with == and used as map keys; Digest gives a short stable
// content hash for checkpoint keying.
type HandoverConfig struct {
	// HysteresisFrac is the fraction of the inter-site spacing by which a
	// same-technology neighbor must be closer before a horizontal handover
	// triggers (an A3-event-style margin). Larger values mean stickier
	// serving cells and fewer handovers.
	HysteresisFrac float64

	// EvalMinSec/EvalMaxSec bound the jittered policy-evaluation cadence:
	// how often the operator reconsiders which technology should serve the
	// UE. Shorter cadences react faster at the cost of more vertical
	// handovers.
	EvalMinSec float64
	EvalMaxSec float64

	// HOMedianDLMs/HOMedianULMs are the median handover interruption in
	// milliseconds under downlink- and uplink-dominated traffic (Fig. 11b
	// measures them separately), and HOSigma is the log-normal spread.
	HOMedianDLMs float64
	HOMedianULMs float64
	HOSigma      float64

	// LTEAProb is the probability that LTE-A (rather than plain LTE)
	// serves the UE when both 4G flavors are available and no 5G tier was
	// selected.
	LTEAProb float64

	// Elev is the elevation-probability table: for each traffic class and
	// country half, the probability that one policy evaluation elevates the
	// UE onto each 5G tier (mmWave, mid-band, low-band — the order
	// chooseTech walks) given the tier is available and every faster tier
	// was declined.
	Elev [NumTrafficClasses][NumZoneHalves][NumElevTiers]float64
}

// ElevProb reads the elevation probability for one policy evaluation.
func (c *HandoverConfig) ElevProb(t radio.Tech, tr Traffic, zone geo.Timezone) float64 {
	return c.Elev[tr.Class()][zoneHalf(zone)][elevTier(t)]
}

// HOMedianMs returns the interruption median for the traffic direction.
func (c *HandoverConfig) HOMedianMs(dir radio.Direction) float64 {
	if dir == radio.Uplink {
		return c.HOMedianULMs
	}
	return c.HOMedianDLMs
}

// Validate rejects configs that would break the simulation: non-finite
// values, negative margins, inverted or non-positive eval bounds,
// non-positive interruption medians, negative sigma, and probabilities
// outside [0, 1].
func (c *HandoverConfig) Validate() error {
	check := func(name string, v float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("handover config: %s is not finite", name)
		}
		return nil
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"hysteresis-frac", c.HysteresisFrac},
		{"eval-min-sec", c.EvalMinSec},
		{"eval-max-sec", c.EvalMaxSec},
		{"ho-median-dl-ms", c.HOMedianDLMs},
		{"ho-median-ul-ms", c.HOMedianULMs},
		{"ho-sigma", c.HOSigma},
		{"ltea-prob", c.LTEAProb},
	} {
		if err := check(f.name, f.v); err != nil {
			return err
		}
	}
	if c.HysteresisFrac < 0 {
		return fmt.Errorf("handover config: hysteresis-frac %g is negative", c.HysteresisFrac)
	}
	if c.EvalMinSec <= 0 {
		return fmt.Errorf("handover config: eval-min-sec %g must be positive", c.EvalMinSec)
	}
	if c.EvalMaxSec < c.EvalMinSec {
		return fmt.Errorf("handover config: eval bounds inverted (%g > %g)", c.EvalMinSec, c.EvalMaxSec)
	}
	if c.HOMedianDLMs <= 0 || c.HOMedianULMs <= 0 {
		return fmt.Errorf("handover config: interruption medians must be positive (dl %g, ul %g)", c.HOMedianDLMs, c.HOMedianULMs)
	}
	if c.HOSigma < 0 {
		return fmt.Errorf("handover config: ho-sigma %g is negative", c.HOSigma)
	}
	if c.LTEAProb < 0 || c.LTEAProb > 1 {
		return fmt.Errorf("handover config: ltea-prob %g outside [0,1]", c.LTEAProb)
	}
	for cls := 0; cls < NumTrafficClasses; cls++ {
		for half := 0; half < NumZoneHalves; half++ {
			for tier := 0; tier < NumElevTiers; tier++ {
				p := c.Elev[cls][half][tier]
				if math.IsNaN(p) || p < 0 || p > 1 {
					return fmt.Errorf("handover config: elevation prob [%s][%d][%d] = %g outside [0,1]",
						TrafficClass(cls), half, tier, p)
				}
			}
		}
	}
	return nil
}

// Digest returns a short stable content hash of the config: the first 12
// hex digits of the SHA-256 over the IEEE-754 bit patterns of every field
// in declaration order. Equal configs always digest equally; fleet
// checkpoints key resumed rows on it.
func (c *HandoverConfig) Digest() string {
	buf := make([]byte, 0, (7+NumTrafficClasses*NumZoneHalves*NumElevTiers)*8)
	put := func(v float64) {
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v))
	}
	put(c.HysteresisFrac)
	put(c.EvalMinSec)
	put(c.EvalMaxSec)
	put(c.HOMedianDLMs)
	put(c.HOMedianULMs)
	put(c.HOSigma)
	put(c.LTEAProb)
	for cls := 0; cls < NumTrafficClasses; cls++ {
		for half := 0; half < NumZoneHalves; half++ {
			for tier := 0; tier < NumElevTiers; tier++ {
				put(c.Elev[cls][half][tier])
			}
		}
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:6])
}

// DefaultHandoverConfig returns the operator's measured policy — the one
// the paper's figures pin and the seed-23 golden reproduces. The elevation
// table is built by sampling the historical elevationProb tables (kept in
// profile.go as the documented source of truth), so the defaults are equal
// by construction, not by transcription.
func DefaultHandoverConfig(op radio.Operator) HandoverConfig {
	cfg := HandoverConfig{
		HysteresisFrac: hoHysteresisFrac,
		EvalMinSec:     evalMinSec,
		EvalMaxSec:     evalMaxSec,
		HOMedianDLMs:   hoDurationMedianMs(op, radio.Downlink),
		HOMedianULMs:   hoDurationMedianMs(op, radio.Uplink),
		HOSigma:        hoDurationSigma,
		LTEAProb:       lteaProb(op),
	}
	// One representative Traffic per class and one representative Timezone
	// per half; elevationProb only ever distinguished at that granularity.
	classTraffic := [NumTrafficClasses]Traffic{Idle, RTTProbe, BacklogDL, BacklogUL}
	halfZone := [NumZoneHalves]geo.Timezone{geo.Pacific, geo.Eastern}
	tierTech := [NumElevTiers]radio.Tech{radio.NRmmW, radio.NRMid, radio.NRLow}
	for cls, tr := range classTraffic {
		for half, zone := range halfZone {
			for tier, tech := range tierTech {
				cfg.Elev[cls][half][tier] = elevationProb(op, tech, tr, zone)
			}
		}
	}
	return cfg
}

// defaultConfigs holds the per-operator default policies; a nil config in
// NewUEWithConfig resolves to these. Initialized once at package load and
// treated as immutable.
var defaultConfigs = func() [radio.NumOperators]HandoverConfig {
	var cfgs [radio.NumOperators]HandoverConfig
	for op := radio.Operator(0); op < radio.NumOperators; op++ {
		cfgs[op] = DefaultHandoverConfig(op)
	}
	return cfgs
}()

// DefaultPolicy returns a pointer to the operator's immutable default
// policy. Callers must not mutate it.
func DefaultPolicy(op radio.Operator) *HandoverConfig { return &defaultConfigs[op] }

// IsDefault reports whether the config equals the operator's default.
func (c *HandoverConfig) IsDefault(op radio.Operator) bool {
	return *c == defaultConfigs[op]
}
