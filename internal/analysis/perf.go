package analysis

import (
	"fmt"
	"strings"

	"wheels/internal/dataset"
	"wheels/internal/geo"
	"wheels/internal/radio"
	"wheels/internal/servers"
)

// Fig3 compares static and driving performance: DL/UL throughput and RTT
// CDFs per operator — Fig. 3.
type Fig3 struct {
	StaticThr  map[radio.Operator]map[radio.Direction]CDF // Mbps
	DrivingThr map[radio.Operator]map[radio.Direction]CDF
	StaticRTT  map[radio.Operator]CDF // ms
	DrivingRTT map[radio.Operator]CDF
}

// ComputeFig3 reduces the dataset to Fig. 3.
func ComputeFig3(ds *dataset.Dataset) Fig3 {
	thr := map[bool]map[radio.Operator]map[radio.Direction][]float64{true: {}, false: {}}
	rtt := map[bool]map[radio.Operator][]float64{true: {}, false: {}}
	for _, s := range ds.Thr {
		byOp := thr[s.Static]
		if byOp[s.Op] == nil {
			byOp[s.Op] = map[radio.Direction][]float64{}
		}
		byOp[s.Op][s.Dir] = append(byOp[s.Op][s.Dir], s.Mbps())
	}
	for _, s := range ds.RTT {
		rtt[s.Static][s.Op] = append(rtt[s.Static][s.Op], s.Ms)
	}
	build := func(v map[radio.Operator]map[radio.Direction][]float64) map[radio.Operator]map[radio.Direction]CDF {
		out := map[radio.Operator]map[radio.Direction]CDF{}
		for op, byDir := range v {
			out[op] = map[radio.Direction]CDF{}
			for dir, vals := range byDir {
				out[op][dir] = NewCDF(vals)
			}
		}
		return out
	}
	buildRTT := func(v map[radio.Operator][]float64) map[radio.Operator]CDF {
		out := map[radio.Operator]CDF{}
		for op, vals := range v {
			out[op] = NewCDF(vals)
		}
		return out
	}
	return Fig3{
		StaticThr:  build(thr[true]),
		DrivingThr: build(thr[false]),
		StaticRTT:  buildRTT(rtt[true]),
		DrivingRTT: buildRTT(rtt[false]),
	}
}

// FracBelow5Mbps returns the fraction of driving samples under 5 Mbps for
// the operator and direction (the paper reports ~35% across carriers).
func (f Fig3) FracBelow5Mbps(op radio.Operator, dir radio.Direction) float64 {
	return f.DrivingThr[op][dir].FracBelow(5)
}

// Render prints the figure.
func (f Fig3) Render() string {
	var b strings.Builder
	b.WriteString("Fig 3: static vs driving performance\n")
	for _, op := range radio.Operators() {
		for _, dir := range radio.Directions() {
			b.WriteString("  " + summarize(fmt.Sprintf("%s %s static thr", op, dir), f.StaticThr[op][dir], "Mbps") + "\n")
			b.WriteString("  " + summarize(fmt.Sprintf("%s %s driving thr", op, dir), f.DrivingThr[op][dir], "Mbps") + "\n")
			fmt.Fprintf(&b, "  %-28s %s\n", fmt.Sprintf("%s %s driving < 5 Mbps", op, dir),
				sharePct(f.FracBelow5Mbps(op, dir), f.DrivingThr[op][dir].N()))
		}
		b.WriteString("  " + summarize(fmt.Sprintf("%s static RTT", op), f.StaticRTT[op], "ms") + "\n")
		b.WriteString("  " + summarize(fmt.Sprintf("%s driving RTT", op), f.DrivingRTT[op], "ms") + "\n")
	}
	return b.String()
}

// Fig4 breaks driving performance down by technology, with Verizon split
// into edge- and cloud-server tests — Fig. 4.
type Fig4 struct {
	Thr map[radio.Operator]map[radio.Direction]map[radio.Tech]CDF
	RTT map[radio.Operator]map[radio.Tech]CDF
	// Verizon-only server split.
	VerizonThrEdge  map[radio.Direction]map[radio.Tech]CDF
	VerizonThrCloud map[radio.Direction]map[radio.Tech]CDF
	VerizonRTTEdge  map[radio.Tech]CDF
	VerizonRTTCloud map[radio.Tech]CDF
}

// ComputeFig4 reduces the dataset to Fig. 4 (driving samples only).
func ComputeFig4(ds *dataset.Dataset) Fig4 {
	thr := map[radio.Operator]map[radio.Direction]map[radio.Tech][]float64{}
	rtt := map[radio.Operator]map[radio.Tech][]float64{}
	vThr := map[servers.Kind]map[radio.Direction]map[radio.Tech][]float64{
		servers.Edge: {}, servers.Cloud: {},
	}
	vRTT := map[servers.Kind]map[radio.Tech][]float64{servers.Edge: {}, servers.Cloud: {}}
	for _, s := range ds.Thr {
		if s.Static {
			continue
		}
		if thr[s.Op] == nil {
			thr[s.Op] = map[radio.Direction]map[radio.Tech][]float64{}
		}
		if thr[s.Op][s.Dir] == nil {
			thr[s.Op][s.Dir] = map[radio.Tech][]float64{}
		}
		thr[s.Op][s.Dir][s.Tech] = append(thr[s.Op][s.Dir][s.Tech], s.Mbps())
		if s.Op == radio.Verizon {
			if vThr[s.Server][s.Dir] == nil {
				vThr[s.Server][s.Dir] = map[radio.Tech][]float64{}
			}
			vThr[s.Server][s.Dir][s.Tech] = append(vThr[s.Server][s.Dir][s.Tech], s.Mbps())
		}
	}
	for _, s := range ds.RTT {
		if s.Static {
			continue
		}
		if rtt[s.Op] == nil {
			rtt[s.Op] = map[radio.Tech][]float64{}
		}
		rtt[s.Op][s.Tech] = append(rtt[s.Op][s.Tech], s.Ms)
		if s.Op == radio.Verizon {
			vRTT[s.Server][s.Tech] = append(vRTT[s.Server][s.Tech], s.Ms)
		}
	}
	buildDT := func(v map[radio.Direction]map[radio.Tech][]float64) map[radio.Direction]map[radio.Tech]CDF {
		out := map[radio.Direction]map[radio.Tech]CDF{}
		for dir, byTech := range v {
			out[dir] = map[radio.Tech]CDF{}
			for tech, vals := range byTech {
				out[dir][tech] = NewCDF(vals)
			}
		}
		return out
	}
	buildT := func(v map[radio.Tech][]float64) map[radio.Tech]CDF {
		out := map[radio.Tech]CDF{}
		for tech, vals := range v {
			out[tech] = NewCDF(vals)
		}
		return out
	}
	out := Fig4{
		Thr: map[radio.Operator]map[radio.Direction]map[radio.Tech]CDF{},
		RTT: map[radio.Operator]map[radio.Tech]CDF{},
	}
	for op, byDir := range thr {
		out.Thr[op] = buildDT(byDir)
	}
	for op, byTech := range rtt {
		out.RTT[op] = buildT(byTech)
	}
	out.VerizonThrEdge = buildDT(vThr[servers.Edge])
	out.VerizonThrCloud = buildDT(vThr[servers.Cloud])
	out.VerizonRTTEdge = buildT(vRTT[servers.Edge])
	out.VerizonRTTCloud = buildT(vRTT[servers.Cloud])
	return out
}

// Render prints the figure.
func (f Fig4) Render() string {
	var b strings.Builder
	b.WriteString("Fig 4: per-technology driving performance\n")
	for _, op := range radio.Operators() {
		for _, dir := range radio.Directions() {
			for _, tech := range radio.Techs() {
				if c, ok := f.Thr[op][dir][tech]; ok && c.N() > 0 {
					b.WriteString("  " + summarize(fmt.Sprintf("%s %s %s thr", op, dir, tech), c, "Mbps") + "\n")
				}
			}
		}
		for _, tech := range radio.Techs() {
			if c, ok := f.RTT[op][tech]; ok && c.N() > 0 {
				b.WriteString("  " + summarize(fmt.Sprintf("%s %s RTT", op, tech), c, "ms") + "\n")
			}
		}
	}
	b.WriteString("  Verizon edge vs cloud (RTT medians):\n")
	for _, tech := range radio.Techs() {
		e, eok := f.VerizonRTTEdge[tech]
		c, cok := f.VerizonRTTCloud[tech]
		if eok && cok && e.N() > 0 && c.N() > 0 {
			fmt.Fprintf(&b, "    %-10s edge=%6.1f ms cloud=%6.1f ms\n", tech, e.Median(), c.Median())
		}
	}
	return b.String()
}

// Fig5 breaks driving throughput down by timezone — Fig. 5.
type Fig5 struct {
	Thr map[radio.Operator]map[radio.Direction]map[geo.Timezone]CDF
}

// ComputeFig5 reduces the dataset to Fig. 5.
func ComputeFig5(ds *dataset.Dataset) Fig5 {
	acc := map[radio.Operator]map[radio.Direction]map[geo.Timezone][]float64{}
	for _, s := range ds.Thr {
		if s.Static {
			continue
		}
		if acc[s.Op] == nil {
			acc[s.Op] = map[radio.Direction]map[geo.Timezone][]float64{}
		}
		if acc[s.Op][s.Dir] == nil {
			acc[s.Op][s.Dir] = map[geo.Timezone][]float64{}
		}
		acc[s.Op][s.Dir][s.Zone] = append(acc[s.Op][s.Dir][s.Zone], s.Mbps())
	}
	out := Fig5{Thr: map[radio.Operator]map[radio.Direction]map[geo.Timezone]CDF{}}
	for op, byDir := range acc {
		out.Thr[op] = map[radio.Direction]map[geo.Timezone]CDF{}
		for dir, byZone := range byDir {
			out.Thr[op][dir] = map[geo.Timezone]CDF{}
			for z, vals := range byZone {
				out.Thr[op][dir][z] = NewCDF(vals)
			}
		}
	}
	return out
}

// Render prints the figure.
func (f Fig5) Render() string {
	var b strings.Builder
	b.WriteString("Fig 5: throughput by timezone (medians, Mbps)\n")
	for _, op := range radio.Operators() {
		for _, dir := range radio.Directions() {
			fmt.Fprintf(&b, "  %-9s %s:", op, dir)
			for z := geo.Pacific; z <= geo.Eastern; z++ {
				if c, ok := f.Thr[op][dir][z]; ok && c.N() > 0 {
					fmt.Fprintf(&b, " %s=%.1f", z, c.Median())
				}
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// SpeedCell is one (speed bin, technology) cell of the Fig. 7/8 scatter.
type SpeedCell struct {
	N      int
	Median float64
	Max    float64
}

// Fig7 summarizes throughput vs speed per technology — Fig. 7.
type Fig7 struct {
	Cells map[radio.Operator]map[radio.Direction]map[geo.SpeedBin]map[radio.Tech]SpeedCell
}

// ComputeFig7 reduces the dataset to Fig. 7.
func ComputeFig7(ds *dataset.Dataset) Fig7 {
	acc := map[radio.Operator]map[radio.Direction]map[geo.SpeedBin]map[radio.Tech][]float64{}
	for _, s := range ds.Thr {
		if s.Static {
			continue
		}
		bin := geo.BinForSpeed(s.MPH)
		if acc[s.Op] == nil {
			acc[s.Op] = map[radio.Direction]map[geo.SpeedBin]map[radio.Tech][]float64{}
		}
		if acc[s.Op][s.Dir] == nil {
			acc[s.Op][s.Dir] = map[geo.SpeedBin]map[radio.Tech][]float64{}
		}
		if acc[s.Op][s.Dir][bin] == nil {
			acc[s.Op][s.Dir][bin] = map[radio.Tech][]float64{}
		}
		acc[s.Op][s.Dir][bin][s.Tech] = append(acc[s.Op][s.Dir][bin][s.Tech], s.Mbps())
	}
	out := Fig7{Cells: map[radio.Operator]map[radio.Direction]map[geo.SpeedBin]map[radio.Tech]SpeedCell{}}
	for op, byDir := range acc {
		out.Cells[op] = map[radio.Direction]map[geo.SpeedBin]map[radio.Tech]SpeedCell{}
		for dir, byBin := range byDir {
			out.Cells[op][dir] = map[geo.SpeedBin]map[radio.Tech]SpeedCell{}
			for bin, byTech := range byBin {
				out.Cells[op][dir][bin] = map[radio.Tech]SpeedCell{}
				for tech, vals := range byTech {
					c := NewCDF(vals)
					out.Cells[op][dir][bin][tech] = SpeedCell{N: c.N(), Median: c.Median(), Max: c.Max()}
				}
			}
		}
	}
	return out
}

// Render prints the figure.
func (f Fig7) Render() string {
	var b strings.Builder
	b.WriteString("Fig 7: throughput vs speed (median Mbps per tech)\n")
	for _, op := range radio.Operators() {
		for _, dir := range radio.Directions() {
			for _, bin := range []geo.SpeedBin{geo.SpeedLow, geo.SpeedMid, geo.SpeedHigh} {
				cells := f.Cells[op][dir][bin]
				if len(cells) == 0 {
					continue
				}
				fmt.Fprintf(&b, "  %-9s %s %-9s:", op, dir, bin)
				for _, tech := range radio.Techs() {
					if c, ok := cells[tech]; ok {
						fmt.Fprintf(&b, " %s med=%.1f max=%.0f (n=%d)", tech, c.Median, c.Max, c.N)
					}
				}
				b.WriteString("\n")
			}
		}
	}
	return b.String()
}

// Fig8 summarizes RTT vs speed per technology — Fig. 8.
type Fig8 struct {
	Cells map[radio.Operator]map[geo.SpeedBin]map[radio.Tech]SpeedCell
}

// ComputeFig8 reduces the dataset to Fig. 8.
func ComputeFig8(ds *dataset.Dataset) Fig8 {
	acc := map[radio.Operator]map[geo.SpeedBin]map[radio.Tech][]float64{}
	for _, s := range ds.RTT {
		if s.Static {
			continue
		}
		bin := geo.BinForSpeed(s.MPH)
		if acc[s.Op] == nil {
			acc[s.Op] = map[geo.SpeedBin]map[radio.Tech][]float64{}
		}
		if acc[s.Op][bin] == nil {
			acc[s.Op][bin] = map[radio.Tech][]float64{}
		}
		acc[s.Op][bin][s.Tech] = append(acc[s.Op][bin][s.Tech], s.Ms)
	}
	out := Fig8{Cells: map[radio.Operator]map[geo.SpeedBin]map[radio.Tech]SpeedCell{}}
	for op, byBin := range acc {
		out.Cells[op] = map[geo.SpeedBin]map[radio.Tech]SpeedCell{}
		for bin, byTech := range byBin {
			out.Cells[op][bin] = map[radio.Tech]SpeedCell{}
			for tech, vals := range byTech {
				c := NewCDF(vals)
				out.Cells[op][bin][tech] = SpeedCell{N: c.N(), Median: c.Median(), Max: c.Max()}
			}
		}
	}
	return out
}

// Render prints the figure.
func (f Fig8) Render() string {
	var b strings.Builder
	b.WriteString("Fig 8: RTT vs speed (median ms per tech)\n")
	for _, op := range radio.Operators() {
		for _, bin := range []geo.SpeedBin{geo.SpeedLow, geo.SpeedMid, geo.SpeedHigh} {
			cells := f.Cells[op][bin]
			if len(cells) == 0 {
				continue
			}
			fmt.Fprintf(&b, "  %-9s %-9s:", op, bin)
			for _, tech := range radio.Techs() {
				if c, ok := cells[tech]; ok {
					fmt.Fprintf(&b, " %s med=%.0f (n=%d)", tech, c.Median, c.N)
				}
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}
