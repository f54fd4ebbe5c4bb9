package replay

import (
	"testing"
	"time"

	"wheels/internal/dataset"
	"wheels/internal/radio"
)

func syntheticDS() *dataset.Dataset {
	t0 := time.Date(2022, 8, 8, 15, 0, 0, 0, time.UTC)
	ds := &dataset.Dataset{}
	// Two DL tests: one steady 40 Mbps, one with an outage hole.
	for i := 0; i < 60; i++ {
		ds.Thr = append(ds.Thr, dataset.ThroughputSample{
			TestID: 1, Op: radio.Verizon, Dir: radio.Downlink, Bps: 40e6,
			TimeUTC: t0.Add(time.Duration(i*500) * time.Millisecond),
		})
		bps := 30e6
		if i >= 20 && i < 30 {
			bps = 0 // 5 s outage
		}
		ds.Thr = append(ds.Thr, dataset.ThroughputSample{
			TestID: 2, Op: radio.TMobile, Dir: radio.Downlink, Bps: bps,
			TimeUTC: t0.Add(time.Duration(i*500) * time.Millisecond),
		})
		// One UL test at 12 Mbps.
		ds.Thr = append(ds.Thr, dataset.ThroughputSample{
			TestID: 3, Op: radio.Verizon, Dir: radio.Uplink, Bps: 12e6,
			TimeUTC: t0.Add(time.Duration(i*500) * time.Millisecond),
		})
	}
	ds.RTT = append(ds.RTT,
		dataset.RTTSample{Op: radio.Verizon, Ms: 60, TimeUTC: t0},
		dataset.RTTSample{Op: radio.TMobile, Ms: 90, TimeUTC: t0},
	)
	return ds
}

func TestExtract(t *testing.T) {
	ds := syntheticDS()
	dl := Extract(ds, radio.Downlink)
	if len(dl) != 2 {
		t.Fatalf("DL traces = %d, want 2", len(dl))
	}
	if len(dl[0].Steps) != 60 {
		t.Errorf("trace 1 has %d steps, want 60", len(dl[0].Steps))
	}
	if dl[0].Steps[0].RTTms != 60 || dl[1].Steps[0].RTTms != 90 {
		t.Errorf("per-operator RTT medians not attached: %v %v",
			dl[0].Steps[0].RTTms, dl[1].Steps[0].RTTms)
	}
	outages := 0
	for _, s := range dl[1].Steps {
		if s.Outage {
			outages++
		}
	}
	if outages != 10 {
		t.Errorf("trace 2 outage steps = %d, want 10", outages)
	}
	ul := Extract(ds, radio.Uplink)
	if len(ul) != 1 || ul[0].TestID != 3 {
		t.Errorf("UL traces = %+v", ul)
	}
}

func TestTransforms(t *testing.T) {
	s := Step{CapBps: 10e6, RTTms: 80}
	if got := ScaleCapacity(2)(s); got.CapBps != 20e6 || got.RTTms != 80 {
		t.Errorf("ScaleCapacity: %+v", got)
	}
	if got := ScaleRTT(0.5)(s); got.RTTms != 40 {
		t.Errorf("ScaleRTT: %+v", got)
	}
	if got := CapRTT(25)(s); got.RTTms != 25 {
		t.Errorf("CapRTT: %+v", got)
	}
	if got := CapRTT(100)(s); got.RTTms != 80 {
		t.Errorf("CapRTT below threshold changed value: %+v", got)
	}
}

func TestNoOutagesIsStateful(t *testing.T) {
	tr := NoOutages()
	good := Step{CapBps: 30e6, RTTms: 50}
	out := Step{Outage: true}
	if got := tr(good); got != good {
		t.Errorf("good step altered: %+v", got)
	}
	if got := tr(out); got != good {
		t.Errorf("outage not replaced by last good step: %+v", got)
	}
	// Before any good step is seen, the transform passes through.
	tr2 := NoOutages()
	if got := tr2(out); !got.Outage {
		t.Error("unseeded NoOutages invented conditions")
	}
}

func TestNetLoopsTrace(t *testing.T) {
	tr := Trace{Steps: []Step{{CapBps: 1e6, RTTms: 10}, {CapBps: 2e6, RTTms: 20}}}
	n := tr.Net()
	first := n.Step(0.5, radio.NeedAll)
	second := n.Step(0.5, radio.NeedAll)
	third := n.Step(0.5, radio.NeedAll) // wraps back to step 0
	if first.CapDLbps != 1e6 || second.CapDLbps != 2e6 || third.CapDLbps != 1e6 {
		t.Errorf("loop sequence: %v %v %v", first.CapDLbps, second.CapDLbps, third.CapDLbps)
	}
	if first.CapULbps != first.CapDLbps {
		t.Error("capacity not exposed on both directions")
	}
}

func TestWhatIfCounterfactuals(t *testing.T) {
	ds := syntheticDS()
	dl := Extract(ds, radio.Downlink)

	base := ReplayVideo(dl, 30)
	boosted := ReplayVideo(dl, 30, ScaleCapacity(4))
	if boosted.Median <= base.Median {
		t.Errorf("4x capacity did not improve video QoE: %.1f vs %.1f", boosted.Median, base.Median)
	}
	// Removing outages must not substantially hurt; it may not strictly
	// help the median because BBA oscillates at rung boundaries when the
	// buffer is allowed to grow (a real ABR artifact, not a replay bug).
	noOut := ReplayVideo(dl, 30, NoOutages())
	if noOut.Median < base.Median-10 {
		t.Errorf("removing outages collapsed QoE: %.1f vs %.1f", noOut.Median, base.Median)
	}
	if noOut.BadFrac > base.BadFrac {
		t.Errorf("removing outages increased negative-QoE runs: %.2f vs %.2f", noOut.BadFrac, base.BadFrac)
	}

	ul := Extract(ds, radio.Uplink)
	arBase := ReplayAR(ul)
	arEdge := ReplayAR(ul, CapRTT(25))
	if arEdge.Median >= arBase.Median {
		t.Errorf("edge-everywhere did not cut AR E2E: %.0f vs %.0f", arEdge.Median, arBase.Median)
	}

	table := WhatIf(ds, 30, 20)
	for _, want := range []string{"baseline", "edge everywhere", "no outages"} {
		if !contains(table, want) {
			t.Errorf("what-if table missing counterfactual %q:\n%s", want, table)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		func() bool {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
			return false
		}())
}

func TestOutcomeEmpty(t *testing.T) {
	o := ReplayVideo(nil, 10)
	if o.Runs != 0 || o.BadFrac != 0 {
		t.Errorf("empty replay: %+v", o)
	}
}
