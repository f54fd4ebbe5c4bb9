package plot

import (
	"encoding/xml"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSVGIsWellFormedXML(t *testing.T) {
	c := &Chart{
		Title:  "CDF of throughput <test> & co",
		XLabel: "Throughput (Mbps)",
		YLabel: "CDF",
		Series: []Series{
			{Name: "Verizon", X: []float64{1, 10, 100}, Y: []float64{0.2, 0.5, 1.0}},
			{Name: "T-Mobile", X: []float64{2, 20, 200}, Y: []float64{0.3, 0.6, 1.0}, Dashed: true},
		},
	}
	out, err := c.SVG()
	if err != nil {
		t.Fatal(err)
	}
	dec := xml.NewDecoder(strings.NewReader(string(out)))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				break
			}
			t.Fatalf("SVG is not well-formed XML: %v", err)
		}
	}
	for _, want := range []string{"polyline", "Verizon", "T-Mobile", "stroke-dasharray", "&lt;test&gt; &amp; co"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("SVG missing %q", want)
		}
	}
}

func TestSVGErrors(t *testing.T) {
	if _, err := (&Chart{Title: "empty"}).SVG(); err == nil {
		t.Error("empty chart rendered")
	}
	bad := &Chart{Series: []Series{{Name: "x", X: []float64{1, 2}, Y: []float64{1}}}}
	if _, err := bad.SVG(); err == nil {
		t.Error("mismatched series rendered")
	}
	onlyEmpty := &Chart{Series: []Series{{Name: "x"}}}
	if _, err := onlyEmpty.SVG(); err == nil {
		t.Error("chart with only empty series rendered")
	}
}

func TestLogXSkipsNonPositive(t *testing.T) {
	c := &Chart{
		LogX: true,
		Series: []Series{
			{Name: "s", X: []float64{0, 0.1, 1, 10}, Y: []float64{0, 0.3, 0.6, 1}},
		},
	}
	if _, err := c.SVG(); err != nil {
		t.Fatalf("log-x chart with a zero x failed: %v", err)
	}
}

func TestTicksCoverRange(t *testing.T) {
	if err := quick.Check(func(loRaw int8, spanRaw uint8) bool {
		lo := float64(loRaw)
		hi := lo + float64(spanRaw) + 1
		ts := ticks(lo, hi, 6)
		if len(ts) < 2 || len(ts) > 14 {
			return false
		}
		for i, v := range ts {
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
			if i > 0 && v <= ts[i-1] {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestFormatTick(t *testing.T) {
	cases := map[float64]string{0: "0", 0.05: "0.05", 2.5: "2.5", 42: "42", 1500: "1500"}
	for v, want := range cases {
		if got := formatTick(v); got != want {
			t.Errorf("formatTick(%v) = %q, want %q", v, got, want)
		}
	}
	if math.IsNaN(1) { // silence unused math import paranoia in some builds
		t.Fatal()
	}
}

func TestBarChartSVG(t *testing.T) {
	c := &BarChart{
		Title:  "Fig 2a coverage",
		YLabel: "% of miles",
		Bars: []Bar{
			{Label: "Verizon", Segments: []Segment{{Name: "LTE", Value: 30}, {Name: "5G", Value: 20, Color: "#e6550d"}}},
			{Label: "T-Mobile", Segments: []Segment{{Name: "LTE", Value: 10}, {Name: "5G", Value: 65, Color: "#e6550d"}}},
		},
	}
	out, err := c.SVG()
	if err != nil {
		t.Fatal(err)
	}
	dec := xml.NewDecoder(strings.NewReader(string(out)))
	for {
		if _, err := dec.Token(); err != nil {
			if err.Error() == "EOF" {
				break
			}
			t.Fatalf("bar SVG not well-formed: %v", err)
		}
	}
	for _, want := range []string{"Verizon", "T-Mobile", "#e6550d", "rect"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("bar SVG missing %q", want)
		}
	}
}

func TestBarChartErrors(t *testing.T) {
	if _, err := (&BarChart{Title: "empty"}).SVG(); err == nil {
		t.Error("empty bar chart rendered")
	}
	neg := &BarChart{Bars: []Bar{{Label: "x", Segments: []Segment{{Name: "a", Value: -1}}}}}
	if _, err := neg.SVG(); err == nil {
		t.Error("negative segment rendered")
	}
	zero := &BarChart{Bars: []Bar{{Label: "x", Segments: []Segment{{Name: "a", Value: 0}}}}}
	if _, err := zero.SVG(); err == nil {
		t.Error("all-zero chart rendered")
	}
}
