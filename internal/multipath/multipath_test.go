package multipath

import (
	"testing"

	"wheels/internal/pathtest"
	"wheels/internal/transport"
)

func TestAggregatorSumsCapacity(t *testing.T) {
	a, err := NewAggregator(
		pathtest.Const{Cap: 30e6, RTT: 50},
		pathtest.Const{Cap: 50e6, RTT: 70},
		pathtest.Const{Cap: 20e6, RTT: 60},
	)
	if err != nil {
		t.Fatal(err)
	}
	res := a.RunBulk(30)
	agg := res.Aggregate.MeanBps()
	// The bonded connection should approach the 100 Mbps sum.
	if agg < 75e6 || agg > 100e6 {
		t.Errorf("aggregate = %.1f Mbps over a 100 Mbps bonded path", agg/1e6)
	}
	// Each subflow individually converges on its own path.
	if res.PerPath[1].MeanBps() < res.PerPath[2].MeanBps() {
		t.Error("subflow on the 50 Mbps path slower than on the 20 Mbps path")
	}
	// Aggregate samples equal the sum of per-path samples.
	for i := range res.Aggregate.SamplesBps {
		var sum float64
		for _, pp := range res.PerPath {
			sum += pp.SamplesBps[i]
		}
		if d := res.Aggregate.SamplesBps[i] - sum; d > 1 || d < -1 {
			t.Fatalf("sample %d: aggregate %.0f != subflow sum %.0f", i, res.Aggregate.SamplesBps[i], sum)
		}
	}
}

func TestAggregatorBeatsBestSinglePath(t *testing.T) {
	mk := func() []transport.Path {
		return []transport.Path{
			&pathtest.Outage{Const: pathtest.Const{Cap: 40e6, RTT: 60}, Start: 5, End: 12},
			&pathtest.Outage{Const: pathtest.Const{Cap: 40e6, RTT: 60}, Start: 18, End: 25},
		}
	}
	paths := mk()
	a, _ := NewAggregator(paths...)
	bonded := a.RunBulk(30).Aggregate.MeanBps()
	single := transport.RunBulk(mk()[0], 30).MeanBps()
	if bonded <= single {
		t.Errorf("bonded %.1f Mbps not above single-path %.1f Mbps with disjoint outages",
			bonded/1e6, single/1e6)
	}
	// During each outage the other subflow keeps the connection alive.
	res, _ := NewAggregator(mk()...)
	out := res.RunBulk(30)
	during := out.Aggregate.SamplesBps[16] // t = 8 s, path 0 down
	if during < 20e6 {
		t.Errorf("aggregate during path-0 outage = %.1f Mbps; path 1 should carry it", during/1e6)
	}
}

func TestNewAggregatorRequiresPaths(t *testing.T) {
	if _, err := NewAggregator(); err == nil {
		t.Error("NewAggregator() with no paths succeeded")
	}
}
