package ran

import (
	"testing"

	"wheels/internal/deploy"
	"wheels/internal/geo"
	"wheels/internal/radio"
	"wheels/internal/sim"
)

// setupFor is testSetup without the *testing.T, shared with benchmarks.
func setupFor(op radio.Operator) (*geo.Route, *deploy.Deployment, *UE) {
	route := geo.NewRoute()
	dep := deploy.New(route, op, sim.NewRNG(23).Stream("deploy"))
	ue := NewUE(sim.NewRNG(23).Stream("ran-test"), dep)
	return route, dep, ue
}

// BenchmarkUEStep times the full per-tick radio loop — availability mask,
// policy, serving-cell geometry, link fading — at the transport tick width,
// driving along the route at 60 mph.
func BenchmarkUEStep(b *testing.B) {
	route, _, ue := setupFor(radio.TMobile)
	const dt = 0.02
	cur := route.Cursor()
	t, km := 0.0, 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ue.Step(t, dt, km, 60, cur.RoadClassAt(km), cur.TimezoneAt(km), BacklogDL)
		t += dt
		km += 60 * geo.KmPerMile / 3600 * dt
		if km >= route.LengthKm() {
			km = 0
			cur = route.Cursor()
		}
	}
}

// TestUEStepSteadyStateAllocationFree pins the no-handover tick at zero
// heap allocations: once the UE is attached, stepping it in place must not
// touch the allocator. Steady-state ticks are the 98%+ case; handover ticks
// are pinned separately by TestUEStepHandoverTicksAllocationFree.
func TestUEStepSteadyStateAllocationFree(t *testing.T) {
	_, _, ue := setupFor(radio.TMobile)
	const (
		km = 2.0 // inside T-Mobile's LA coverage for seed 23
		dt = 0.02
	)
	road := geo.RoadCity
	zone := geo.Pacific
	// Attach before measuring.
	tm := 0.0
	ue.Step(tm, dt, km, 0, road, zone, Idle)
	if _, ok := ue.ServingTech(); !ok {
		t.Fatalf("UE failed to attach at km %.1f", km)
	}
	// 100 runs advance time by 2 s, safely below the 9 s minimum policy
	// evaluation interval, and the position is fixed, so no handover can
	// trigger inside the measured window.
	allocs := testing.AllocsPerRun(100, func() {
		tm += dt
		ue.Step(tm, dt, km, 0, road, zone, Idle)
	})
	if allocs != 0 {
		t.Errorf("UE.Step steady-state tick = %.1f allocs/op, want 0", allocs)
	}
}

// TestUEStepHandoverTicksAllocationFree pins handover ticks at zero heap
// allocations too. Once a warm-up drive has grown the event buffer, a
// handover only appends to it, and a caller that drains TakeHandovers every
// tick, as the campaign does, keeps the whole drive off the allocator.
func TestUEStepHandoverTicksAllocationFree(t *testing.T) {
	route, _, ue := setupFor(radio.TMobile)
	const (
		dt      = 0.5
		warmKm  = 50.0
		segKm   = 100.0
		minHOs  = 5
		mph     = 60.0
		kmPerDt = mph * geo.KmPerMile / 3600 * dt
	)
	cur := route.Cursor()
	tm, km := 0.0, 0.0
	for ; km < warmKm; km += kmPerDt {
		ue.Step(tm, dt, km, mph, cur.RoadClassAt(km), cur.TimezoneAt(km), BacklogDL)
		tm += dt
	}
	ue.TakeHandovers()
	var snap Snapshot
	hos := 0
	// AllocsPerRun calls the function once unmeasured before the measured
	// run, so each call drives the next segment.
	allocs := testing.AllocsPerRun(1, func() {
		hos = 0
		for end := km + segKm; km < end; km += kmPerDt {
			ue.StepInto(&snap, tm, dt, km, mph, cur.RoadClassAt(km), cur.TimezoneAt(km), BacklogDL, radio.NeedAll)
			tm += dt
			hos += len(ue.TakeHandovers())
		}
	})
	if hos < minHOs {
		t.Fatalf("measured segment had %d handovers, want at least %d", hos, minHOs)
	}
	if allocs != 0 {
		t.Errorf("%.0f km of driving with %d handovers = %.0f allocs, want 0", segKm, hos, allocs)
	}
}
