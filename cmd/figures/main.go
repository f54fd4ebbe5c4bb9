// Command figures regenerates any of the paper's figures or tables, its
// extensions and the §8 what-if replay, either from a dataset directory
// produced by drivesim or by simulating a fresh campaign.
//
// Usage:
//
//	figures -data DIR [fig1 fig2a ... table3 whatif]
//	figures -seed 23 -km 1000 all
//
// With no figure arguments it prints every figure and table.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"wheels/internal/analysis"
	"wheels/internal/campaign"
	"wheels/internal/dataset"
	"wheels/internal/geo"
	"wheels/internal/mapexport"
	"wheels/internal/radio"
	"wheels/internal/replay"
	"wheels/internal/report"
)

// The session lengths, in seconds, the what-if replay runs its video and
// gaming models for.
const (
	whatIfVideoSec  = 60
	whatIfGamingSec = 30
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	var (
		data    = flag.String("data", "", "dataset directory written by drivesim (empty = simulate)")
		seed    = flag.Int64("seed", 23, "seed when simulating")
		km      = flag.Float64("km", 1500, "route km when simulating (0 = full trip)")
		svgDir  = flag.String("svg", "", "also render the distribution figures as SVG files into this directory")
		geoDir  = flag.String("geojson", "", "also export Fig. 1 coverage maps as GeoJSON into this directory")
		htmlOut = flag.String("html", "", "also write a self-contained HTML report to this file")
	)
	flag.Parse()

	var ds *dataset.Dataset
	if *data != "" {
		var err error
		ds, err = dataset.Load(*data)
		if err != nil {
			log.Fatalf("loading dataset: %v", err)
		}
	} else {
		cfg := campaign.DefaultConfig(*seed)
		cfg.KmLimit = *km
		fmt.Fprintf(os.Stderr, "simulating campaign (seed %d, %.0f km)...\n", *seed, *km)
		ds = campaign.New(cfg).Run()
	}

	route := geo.NewRoute()
	render := map[string]func() string{
		"table1": func() string { return analysis.ComputeTable1(ds, route).Render() },
		"fig1":   func() string { return analysis.ComputeFig1(ds, route.LengthKm()/2).Render() },
		"fig2a":  func() string { return analysis.ComputeFig2a(ds).Render() },
		"fig2b":  func() string { return analysis.ComputeFig2b(ds).Render() },
		"fig2c":  func() string { return analysis.ComputeFig2c(ds).Render() },
		"fig2d":  func() string { return analysis.ComputeFig2d(ds).Render() },
		"fig3":   func() string { return analysis.ComputeFig3(ds).Render() },
		"fig4":   func() string { return analysis.ComputeFig4(ds).Render() },
		"fig5":   func() string { return analysis.ComputeFig5(ds).Render() },
		"fig6":   func() string { return analysis.ComputeFig6(ds).Render() },
		"fig7":   func() string { return analysis.ComputeFig7(ds).Render() },
		"fig8":   func() string { return analysis.ComputeFig8(ds).Render() },
		"table2": func() string { return analysis.ComputeTable2(ds).Render() },
		"fig9":   func() string { return analysis.ComputeFig9(ds).Render() },
		"fig10":  func() string { return analysis.ComputeFig10(ds).Render() },
		"table3": func() string { return analysis.ComputeTable3(ds).Render() },
		"fig11":  func() string { return analysis.ComputeFig11(ds).Render() },
		"fig12":  func() string { return analysis.ComputeFig12(ds).Render() },
		"fig13":  func() string { return analysis.ComputeOffloadFig(ds, dataset.TestAR).Render() },
		"fig14":  func() string { return analysis.ComputeOffloadFig(ds, dataset.TestCAV).Render() },
		"fig15":  func() string { return analysis.ComputeVideoFig(ds).Render() },
		"fig16":  func() string { return analysis.ComputeGamingFig(ds).Render() },
		// Extensions beyond the paper: its stated future work (§5.5
		// multivariate KPI analysis) and its §8 recommendation
		// (multi-operator bonding).
		"ext-multivariate": func() string { return analysis.ComputeMultivariateKPI(ds).Render() },
		"ext-speedtest":    func() string { return analysis.ComputeTable3X(ds).Render() },
		"ext-multipath": func() string {
			return analysis.ComputeMultipathGain(ds, radio.Downlink).Render() +
				analysis.ComputeMultipathGain(ds, radio.Uplink).Render()
		},
		// The §8 recommendations replayed over the recorded traces.
		"whatif": func() string { return replay.WhatIf(ds, whatIfVideoSec, whatIfGamingSec) },
	}

	want := flag.Args()
	if len(want) == 0 || (len(want) == 1 && want[0] == "all") {
		want = make([]string, 0, len(render))
		for k := range render {
			want = append(want, k)
		}
		sort.Strings(want)
	}
	for _, id := range want {
		fn, ok := render[strings.ToLower(id)]
		if !ok {
			log.Fatalf("unknown figure %q; known: %s", id, known(render))
		}
		fmt.Println(fn())
	}

	if *svgDir != "" {
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			log.Fatal(err)
		}
		render := map[string]interface{ SVG() ([]byte, error) }{}
		for name, ch := range analysis.SVGCharts(ds) {
			render[name] = ch
		}
		for name, ch := range analysis.BarCharts(ds) {
			render[name] = ch
		}
		names := make([]string, 0, len(render))
		for name := range render {
			names = append(names, name)
		}
		sort.Strings(names)
		wrote := 0
		for _, name := range names {
			svg, err := render[name].SVG()
			if err != nil {
				log.Printf("skipping %s: %v", name, err)
				continue
			}
			path := filepath.Join(*svgDir, name+".svg")
			if err := os.WriteFile(path, svg, 0o644); err != nil {
				log.Fatal(err)
			}
			wrote++
		}
		fmt.Printf("wrote %d SVG figures to %s\n", wrote, *svgDir)
	}

	if *geoDir != "" {
		if err := os.MkdirAll(*geoDir, 0o755); err != nil {
			log.Fatal(err)
		}
		wrote := 0
		for _, op := range radio.Operators() {
			for _, view := range []mapexport.View{mapexport.ViewActive, mapexport.ViewPassive} {
				out, err := mapexport.Coverage(route, ds, op, view, 5)
				if err != nil {
					log.Fatal(err)
				}
				name := fmt.Sprintf("coverage-%s-%s.geojson", op.Short(), view)
				if err := os.WriteFile(filepath.Join(*geoDir, name), out, 0o644); err != nil {
					log.Fatal(err)
				}
				wrote++
			}
		}
		fmt.Printf("wrote %d GeoJSON coverage maps to %s\n", wrote, *geoDir)
	}

	if *htmlOut != "" {
		page, err := report.Build(ds, route)
		if err != nil {
			log.Fatalf("building report: %v", err)
		}
		if err := os.WriteFile(*htmlOut, page, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote HTML report to %s\n", *htmlOut)
	}
}

func known(m map[string]func() string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, " ")
}
