package analysis

import (
	"fmt"
	"sort"
	"strings"

	"wheels/internal/dataset"
	"wheels/internal/geo"
	"wheels/internal/radio"
)

// TechShare maps each technology to its share of miles (or time) connected.
type TechShare map[radio.Tech]float64

// FiveG returns the total 5G share.
func (s TechShare) FiveG() float64 {
	return s[radio.NRLow] + s[radio.NRMid] + s[radio.NRmmW]
}

// HighSpeed returns the 5G mid + mmWave share.
func (s TechShare) HighSpeed() float64 {
	return s[radio.NRMid] + s[radio.NRmmW]
}

func (s TechShare) render() string {
	var b strings.Builder
	for _, t := range radio.Techs() {
		fmt.Fprintf(&b, "%s=%5.1f%% ", t, 100*s[t])
	}
	return b.String()
}

// sampleMiles is the distance represented by one 500 ms driving sample.
func sampleMiles(mph float64) float64 { return mph * 0.5 / 3600 }

// normalize converts accumulated weights to fractions. It iterates in
// radio.Techs order, not map order, so the float sum — and therefore the
// last bits of every share — is deterministic across runs.
func normalize(w TechShare) TechShare {
	var total float64
	for _, t := range radio.Techs() {
		total += w[t]
	}
	if total == 0 {
		return w
	}
	out := TechShare{}
	for _, t := range radio.Techs() {
		if v, ok := w[t]; ok {
			out[t] = v / total
		}
	}
	return out
}

// Fig2a computes the technology coverage as a share of miles driven during
// active (throughput) tests, per operator — Fig. 2a.
type Fig2a struct {
	Share map[radio.Operator]TechShare
}

// ComputeFig2a reduces the dataset to Fig. 2a.
func ComputeFig2a(ds *dataset.Dataset) Fig2a {
	acc := map[radio.Operator]TechShare{}
	for _, op := range radio.Operators() {
		acc[op] = TechShare{}
	}
	for _, s := range ds.Thr {
		if s.Static {
			continue
		}
		acc[s.Op][s.Tech] += sampleMiles(s.MPH)
	}
	out := Fig2a{Share: map[radio.Operator]TechShare{}}
	for op, w := range acc {
		out.Share[op] = normalize(w)
	}
	return out
}

// Render prints the figure as a text table.
func (f Fig2a) Render() string {
	var b strings.Builder
	b.WriteString("Fig 2a: technology coverage (% of miles, active tests)\n")
	for _, op := range radio.Operators() {
		s := f.Share[op]
		fmt.Fprintf(&b, "  %-9s %s | 5G=%5.1f%% high-speed=%5.1f%%\n",
			op, s.render(), 100*s.FiveG(), 100*s.HighSpeed())
	}
	return b.String()
}

// Fig2b splits coverage by traffic direction — Fig. 2b (uses only the
// backlogged throughput tests, as the paper does).
type Fig2b struct {
	Share map[radio.Operator]map[radio.Direction]TechShare
}

// ComputeFig2b reduces the dataset to Fig. 2b.
func ComputeFig2b(ds *dataset.Dataset) Fig2b {
	acc := map[radio.Operator]map[radio.Direction]TechShare{}
	for _, op := range radio.Operators() {
		acc[op] = map[radio.Direction]TechShare{radio.Downlink: {}, radio.Uplink: {}}
	}
	for _, s := range ds.Thr {
		if s.Static {
			continue
		}
		acc[s.Op][s.Dir][s.Tech] += sampleMiles(s.MPH)
	}
	out := Fig2b{Share: map[radio.Operator]map[radio.Direction]TechShare{}}
	for op, byDir := range acc {
		out.Share[op] = map[radio.Direction]TechShare{}
		for dir, w := range byDir {
			out.Share[op][dir] = normalize(w)
		}
	}
	return out
}

// Render prints the figure.
func (f Fig2b) Render() string {
	var b strings.Builder
	b.WriteString("Fig 2b: technology coverage by traffic direction\n")
	for _, op := range radio.Operators() {
		for _, dir := range radio.Directions() {
			s := f.Share[op][dir]
			fmt.Fprintf(&b, "  %-9s %s %s | 5G=%5.1f%% high-speed=%5.1f%%\n",
				op, dir, s.render(), 100*s.FiveG(), 100*s.HighSpeed())
		}
	}
	return b.String()
}

// Fig2c splits coverage by timezone — Fig. 2c.
type Fig2c struct {
	Share map[radio.Operator]map[geo.Timezone]TechShare
}

// ComputeFig2c reduces the dataset to Fig. 2c.
func ComputeFig2c(ds *dataset.Dataset) Fig2c {
	acc := map[radio.Operator]map[geo.Timezone]TechShare{}
	for _, op := range radio.Operators() {
		acc[op] = map[geo.Timezone]TechShare{}
		for z := geo.Pacific; z <= geo.Eastern; z++ {
			acc[op][z] = TechShare{}
		}
	}
	for _, s := range ds.Thr {
		if s.Static {
			continue
		}
		acc[s.Op][s.Zone][s.Tech] += sampleMiles(s.MPH)
	}
	out := Fig2c{Share: map[radio.Operator]map[geo.Timezone]TechShare{}}
	for op, byZone := range acc {
		out.Share[op] = map[geo.Timezone]TechShare{}
		for z, w := range byZone {
			out.Share[op][z] = normalize(w)
		}
	}
	return out
}

// Render prints the figure.
func (f Fig2c) Render() string {
	var b strings.Builder
	b.WriteString("Fig 2c: technology coverage by timezone\n")
	for _, op := range radio.Operators() {
		for z := geo.Pacific; z <= geo.Eastern; z++ {
			s := f.Share[op][z]
			fmt.Fprintf(&b, "  %-9s %-8s %s\n", op, z, s.render())
		}
	}
	return b.String()
}

// Fig2d splits coverage by speed bin — Fig. 2d.
type Fig2d struct {
	Share map[radio.Operator]map[geo.SpeedBin]TechShare
}

// ComputeFig2d reduces the dataset to Fig. 2d.
func ComputeFig2d(ds *dataset.Dataset) Fig2d {
	acc := map[radio.Operator]map[geo.SpeedBin]TechShare{}
	for _, op := range radio.Operators() {
		acc[op] = map[geo.SpeedBin]TechShare{
			geo.SpeedLow: {}, geo.SpeedMid: {}, geo.SpeedHigh: {},
		}
	}
	for _, s := range ds.Thr {
		if s.Static {
			continue
		}
		// Weight by time here, not distance: the low-speed bin would vanish
		// under distance weighting.
		acc[s.Op][geo.BinForSpeed(s.MPH)][s.Tech]++
	}
	out := Fig2d{Share: map[radio.Operator]map[geo.SpeedBin]TechShare{}}
	for op, byBin := range acc {
		out.Share[op] = map[geo.SpeedBin]TechShare{}
		for bin, w := range byBin {
			out.Share[op][bin] = normalize(w)
		}
	}
	return out
}

// Render prints the figure.
func (f Fig2d) Render() string {
	var b strings.Builder
	b.WriteString("Fig 2d: technology coverage by speed bin\n")
	for _, op := range radio.Operators() {
		for _, bin := range []geo.SpeedBin{geo.SpeedLow, geo.SpeedMid, geo.SpeedHigh} {
			s := f.Share[op][bin]
			fmt.Fprintf(&b, "  %-9s %-9s %s | high-speed=%5.1f%%\n", op, bin, s.render(), 100*s.HighSpeed())
		}
	}
	return b.String()
}

// Fig1 contrasts the passive handover-logger coverage view against the
// active (XCAL during throughput tests) view — Fig. 1 / §4.1.
type Fig1 struct {
	Passive map[radio.Operator]TechShare
	Active  map[radio.Operator]TechShare
	// PassiveN and ActiveN count the samples behind each operator's
	// shares: a dataset logged without the passive loggers has passive
	// shares of nothing, not of 0%.
	PassiveN map[radio.Operator]int
	ActiveN  map[radio.Operator]int
	// T-Mobile's split personality: the two views agree on the east half
	// of the country but not the west (Figs. 1c vs 1f). Each share comes
	// with the number of samples behind it: a drive that never reached a
	// half has no share there, only a zero count.
	TMobilePassiveWest5G float64
	TMobilePassiveEast5G float64
	TMobileActiveWest5G  float64
	TMobileActiveEast5G  float64
	TMobilePassiveWestN  int
	TMobilePassiveEastN  int
	TMobileActiveWestN   int
	TMobileActiveEastN   int
}

// ComputeFig1 reduces the dataset to Fig. 1. midKm is the route distance
// splitting the "west" and "east" halves (typically half the route length).
func ComputeFig1(ds *dataset.Dataset, midKm float64) Fig1 {
	out := Fig1{
		Passive:  map[radio.Operator]TechShare{},
		Active:   ComputeFig2a(ds).Share,
		PassiveN: map[radio.Operator]int{},
		ActiveN:  map[radio.Operator]int{},
	}
	acc := map[radio.Operator]TechShare{}
	for _, op := range radio.Operators() {
		acc[op] = TechShare{}
	}
	var pw5, pe5 float64
	for _, s := range ds.Passive {
		if s.NoSvc {
			continue
		}
		acc[s.Op][s.Tech]++
		out.PassiveN[s.Op]++
		if s.Op == radio.TMobile {
			if s.Km < midKm {
				out.TMobilePassiveWestN++
				if s.Tech.Is5G() {
					pw5++
				}
			} else {
				out.TMobilePassiveEastN++
				if s.Tech.Is5G() {
					pe5++
				}
			}
		}
	}
	for op, w := range acc {
		out.Passive[op] = normalize(w)
	}
	if n := out.TMobilePassiveWestN; n > 0 {
		out.TMobilePassiveWest5G = pw5 / float64(n)
	}
	if n := out.TMobilePassiveEastN; n > 0 {
		out.TMobilePassiveEast5G = pe5 / float64(n)
	}
	var aw5, aw, ae5, ae float64
	for _, s := range ds.Thr {
		if s.Static {
			continue
		}
		out.ActiveN[s.Op]++
		if s.Op != radio.TMobile {
			continue
		}
		m := sampleMiles(s.MPH)
		if s.Km < midKm {
			aw += m
			out.TMobileActiveWestN++
			if s.Tech.Is5G() {
				aw5 += m
			}
		} else {
			ae += m
			out.TMobileActiveEastN++
			if s.Tech.Is5G() {
				ae5 += m
			}
		}
	}
	if aw > 0 {
		out.TMobileActiveWest5G = aw5 / aw
	}
	if ae > 0 {
		out.TMobileActiveEast5G = ae5 / ae
	}
	return out
}

// Render prints the figure.
func (f Fig1) Render() string {
	var b strings.Builder
	b.WriteString("Fig 1: passive (handover-logger) vs active (XCAL) coverage\n")
	ops := radio.Operators()
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	for _, op := range ops {
		fmt.Fprintf(&b, "  %-9s passive 5G=%s  active 5G=%s\n",
			op, sharePct(f.Passive[op].FiveG(), f.PassiveN[op]), sharePct(f.Active[op].FiveG(), f.ActiveN[op]))
	}
	fmt.Fprintf(&b, "  T-Mobile west half: passive 5G=%s active 5G=%s\n",
		sharePct(f.TMobilePassiveWest5G, f.TMobilePassiveWestN), sharePct(f.TMobileActiveWest5G, f.TMobileActiveWestN))
	fmt.Fprintf(&b, "  T-Mobile east half: passive 5G=%s active 5G=%s\n",
		sharePct(f.TMobilePassiveEast5G, f.TMobilePassiveEastN), sharePct(f.TMobileActiveEast5G, f.TMobileActiveEastN))
	return b.String()
}

// sharePct renders a 5G share taken over n samples, or "no samples" when
// there were none — a share of nothing is not a measured 0%.
func sharePct(share float64, n int) string {
	if n == 0 {
		return "no samples"
	}
	return fmt.Sprintf("%5.1f%%", 100*share)
}
