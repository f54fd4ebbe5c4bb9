package report

import (
	"strings"
	"testing"
	"time"

	"wheels/internal/dataset"
	"wheels/internal/geo"
	"wheels/internal/radio"
	"wheels/internal/servers"
)

func smallDS() *dataset.Dataset {
	t0 := time.Date(2022, 8, 8, 15, 0, 0, 0, time.UTC)
	ds := &dataset.Dataset{Seed: 23}
	for i := 0; i < 30; i++ {
		for _, op := range radio.Operators() {
			ds.Thr = append(ds.Thr, dataset.ThroughputSample{
				TestID: 1 + int(op), Op: op, Dir: radio.Downlink, Bps: float64(5+i) * 1e6,
				Tech: radio.LTEA, TimeUTC: t0.Add(time.Duration(i) * time.Second),
				MPH: 60, Zone: geo.Pacific, Road: geo.RoadHighway, Server: servers.Cloud,
			})
			ds.RTT = append(ds.RTT, dataset.RTTSample{
				Op: op, Ms: float64(60 + i), Tech: radio.LTEA,
				TimeUTC: t0.Add(time.Duration(i) * time.Second), MPH: 60,
			})
		}
	}
	ds.Tests = append(ds.Tests, dataset.TestSummary{
		ID: 1, Op: radio.Verizon, Kind: dataset.TestBulkDL, Dir: radio.Downlink,
		MeanBps: 20e6, Miles: 0.5, HOCount: 1, DurSec: 30,
	})
	ds.Handovers = append(ds.Handovers, dataset.HandoverRecord{
		Op: radio.Verizon, Dir: radio.Downlink, DurSec: 0.05,
		FromTech: radio.LTE, ToTech: radio.LTEA, FromCell: "a", ToCell: "b", TimeUTC: t0,
	})
	ds.Apps = append(ds.Apps, dataset.AppRun{
		Op: radio.Verizon, App: dataset.TestAR, Compressed: true,
		MedianE2EMs: 200, OffloadFPS: 4, MAP: 29, StartUTC: t0, DurSec: 20,
	})
	return ds
}

func buildSmall() ([]byte, error) {
	return Build(smallDS(), geo.NewRoute())
}

func TestBuildReport(t *testing.T) {
	out, err := buildSmall()
	if err != nil {
		t.Fatal(err)
	}
	html := string(out)
	for _, want := range []string{
		"<!DOCTYPE html>",
		"reproduction report",
		"Table 1", "Fig. 3", "Table 2", "Fig. 13", "Extensions",
		"<svg", // at least one inline chart
	} {
		if !strings.Contains(html, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// No external references: the page must be self-contained. (The SVG
	// xmlns URI is a namespace identifier, not a fetched resource.)
	stripped := strings.ReplaceAll(html, `xmlns="http://www.w3.org/2000/svg"`, "")
	for _, banned := range []string{"http://", "https://", "<script", "src="} {
		if strings.Contains(stripped, banned) {
			t.Errorf("report contains external reference %q", banned)
		}
	}
}

// TestBuildReportTable1StopsWithTheDrive: Table 1 reports the distance,
// states, cities and counties of the drive that produced the dataset (its
// furthest sample), not of the whole route.
func TestBuildReportTable1StopsWithTheDrive(t *testing.T) {
	route := geo.NewRoute()
	for _, c := range []struct {
		endKm float64
		want  []string
	}{
		{25, []string{"Distance travelled       25 km", "States/cities/counties   1 / 1 / 1 "}},
		{route.LengthKm(), []string{"Distance travelled       5714 km", "States/cities/counties   14 / 10 / 124 "}},
	} {
		ds := smallDS()
		ds.RTT[len(ds.RTT)-1].Km = c.endKm
		out, err := Build(ds, route)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range c.want {
			if !strings.Contains(string(out), want) {
				t.Errorf("endKm %.0f: report lacks %q", c.endKm, want)
			}
		}
	}
}

func TestBuildReportRejectsEmptyDataset(t *testing.T) {
	if _, err := Build(&dataset.Dataset{}, geo.NewRoute()); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestBuildReportDeterministic(t *testing.T) {
	a, err := buildSmall()
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildSmall()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("report not deterministic")
	}
}
