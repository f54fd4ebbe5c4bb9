// Package plot renders simple, dependency-free SVG line charts. It exists
// so the figure reducers in package analysis can be drawn as the CDF plots
// the paper presents, not only printed as text tables. The output is plain
// SVG 1.1 built with the standard library.
package plot

import (
	"bytes"
	"fmt"
	"math"
)

// Series is one named line on a chart.
type Series struct {
	Name string
	X    []float64
	Y    []float64
	// Dashed draws the line dashed (the paper uses dashed lines for
	// Verizon's edge-server curves in Fig. 4).
	Dashed bool
}

// Chart is a 2-D line chart.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
	// LogX plots the x axis in log10 scale (throughput CDFs span five
	// orders of magnitude).
	LogX bool
	// Width and Height of the SVG canvas in px; zero values get defaults.
	Width  int
	Height int
}

// palette is a colorblind-friendly qualitative palette.
var palette = []string{
	"#0072b2", "#d55e00", "#009e73", "#cc79a7", "#e69f00", "#56b4e9", "#000000",
}

const (
	defaultW   = 640
	defaultH   = 400
	marginL    = 64
	marginR    = 16
	marginT    = 36
	marginB    = 48
	legendLine = 16
)

// SVG renders the chart. It returns an error if there is nothing to draw
// or a series is malformed.
func (c *Chart) SVG() ([]byte, error) {
	if len(c.Series) == 0 {
		return nil, fmt.Errorf("plot: chart %q has no series", c.Title)
	}
	w, h := c.Width, c.Height
	if w <= 0 {
		w = defaultW
	}
	if h <= 0 {
		h = defaultH
	}

	// Data extent.
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range c.Series {
		if len(s.X) != len(s.Y) {
			return nil, fmt.Errorf("plot: series %q has %d x values and %d y values", s.Name, len(s.X), len(s.Y))
		}
		if len(s.X) == 0 {
			continue
		}
		for i := range s.X {
			x := s.X[i]
			if c.LogX {
				if x <= 0 {
					continue // unrepresentable on a log axis
				}
				x = math.Log10(x)
			}
			minX = math.Min(minX, x)
			maxX = math.Max(maxX, x)
			minY = math.Min(minY, s.Y[i])
			maxY = math.Max(maxY, s.Y[i])
		}
	}
	if minX > maxX || minY > maxY {
		return nil, fmt.Errorf("plot: chart %q has no drawable points", c.Title)
	}
	if minX == maxX {
		minX, maxX = minX-1, maxX+1
	}
	if minY == maxY {
		minY, maxY = minY-1, maxY+1
	}

	plotW := float64(w - marginL - marginR)
	plotH := float64(h - marginT - marginB)
	px := func(x float64) float64 { return float64(marginL) + (x-minX)/(maxX-minX)*plotW }
	py := func(y float64) float64 { return float64(marginT) + plotH - (y-minY)/(maxY-minY)*plotH }

	var b bytes.Buffer
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n", w, h, w, h)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", w, h)
	fmt.Fprintf(&b, `<text x="%d" y="20" font-family="sans-serif" font-size="14" font-weight="bold">%s</text>`+"\n",
		marginL, esc(c.Title))

	// Axes.
	fmt.Fprintf(&b, `<line x1="%d" y1="%g" x2="%g" y2="%g" stroke="black"/>`+"\n",
		marginL, float64(marginT)+plotH, float64(marginL)+plotW, float64(marginT)+plotH)
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%g" stroke="black"/>`+"\n",
		marginL, marginT, marginL, float64(marginT)+plotH)

	// X ticks.
	for _, t := range ticks(minX, maxX, 6) {
		x := px(t)
		label := formatTick(t)
		if c.LogX {
			label = formatTick(math.Pow(10, t))
		}
		fmt.Fprintf(&b, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>`+"\n",
			x, float64(marginT)+plotH, x, float64(marginT)+plotH+5)
		fmt.Fprintf(&b, `<text x="%g" y="%g" font-family="sans-serif" font-size="11" text-anchor="middle">%s</text>`+"\n",
			x, float64(marginT)+plotH+18, label)
	}
	// Y ticks.
	for _, t := range ticks(minY, maxY, 5) {
		y := py(t)
		fmt.Fprintf(&b, `<line x1="%g" y1="%g" x2="%d" y2="%g" stroke="black"/>`+"\n",
			float64(marginL)-5, y, marginL, y)
		fmt.Fprintf(&b, `<text x="%g" y="%g" font-family="sans-serif" font-size="11" text-anchor="end">%s</text>`+"\n",
			float64(marginL)-8, y+4, formatTick(t))
	}
	// Axis labels.
	fmt.Fprintf(&b, `<text x="%g" y="%d" font-family="sans-serif" font-size="12" text-anchor="middle">%s</text>`+"\n",
		float64(marginL)+plotW/2, h-8, esc(c.XLabel))
	fmt.Fprintf(&b, `<text x="14" y="%g" font-family="sans-serif" font-size="12" text-anchor="middle" transform="rotate(-90 14 %g)">%s</text>`+"\n",
		float64(marginT)+plotH/2, float64(marginT)+plotH/2, esc(c.YLabel))

	// Series.
	for i, s := range c.Series {
		if len(s.X) == 0 {
			continue
		}
		color := palette[i%len(palette)]
		dash := ""
		if s.Dashed {
			dash = ` stroke-dasharray="6,4"`
		}
		var pts bytes.Buffer
		for j := range s.X {
			x := s.X[j]
			if c.LogX {
				if x <= 0 {
					continue
				}
				x = math.Log10(x)
			}
			fmt.Fprintf(&pts, "%.1f,%.1f ", px(x), py(s.Y[j]))
		}
		fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.8"%s/>`+"\n",
			bytes.TrimSpace(pts.Bytes()), color, dash)
		// Legend entry.
		ly := marginT + 6 + i*legendLine
		lx := w - marginR - 150
		fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="2"%s/>`+"\n",
			lx, ly, lx+20, ly, color, dash)
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="11">%s</text>`+"\n",
			lx+26, ly+4, esc(s.Name))
	}
	b.WriteString("</svg>\n")
	return b.Bytes(), nil
}

// esc escapes the XML special characters in text content.
func esc(s string) string {
	var b bytes.Buffer
	for _, r := range s {
		switch r {
		case '<':
			b.WriteString("&lt;")
		case '>':
			b.WriteString("&gt;")
		case '&':
			b.WriteString("&amp;")
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// ticks returns ~n nicely rounded tick positions covering [lo, hi].
func ticks(lo, hi float64, n int) []float64 {
	if n < 2 {
		n = 2
	}
	span := hi - lo
	step := math.Pow(10, math.Floor(math.Log10(span/float64(n))))
	for _, m := range []float64{1, 2, 5, 10} {
		if span/(step*m) <= float64(n) {
			step *= m
			break
		}
	}
	var out []float64
	for t := math.Ceil(lo/step) * step; t <= hi+1e-9; t += step {
		out = append(out, t)
	}
	return out
}

// formatTick renders a tick label compactly.
func formatTick(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 1000:
		return fmt.Sprintf("%.0f", v)
	case av >= 10:
		return fmt.Sprintf("%.0f", v)
	case av >= 1:
		return fmt.Sprintf("%.1f", v)
	case av == 0:
		return "0"
	default:
		return fmt.Sprintf("%.2g", v)
	}
}
