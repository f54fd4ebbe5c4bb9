package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

// A host that runs everything k times slower, the references included,
// leaves the normalized times where they are.
func TestBlockTimesCancelHostSpeed(t *testing.T) {
	nominal := refNominal.Seconds()
	pieces := []piece{{0, 0.4, 0.4}, {0, 0.5, 0.5}, {1, 1.2, 1.3}, {2, 0.3, 0.3}}
	for _, k := range []float64{1, 1.5, 2} {
		var slow []piece
		for _, p := range pieces {
			slow = append(slow, piece{p.block, p.wall * k, p.cpu * k})
		}
		refs := make([]refTime, len(pieces)+1)
		for i := range refs {
			refs[i] = refTime{nominal * k, nominal * k}
		}
		wall, cpu, nw, nc := blockTimes(slow, refs, 3)
		want := []float64{0.9, 1.2, 0.3}
		wantCPU := []float64{0.9, 1.3, 0.3}
		for b := range want {
			if !near(nw[b], want[b]) || !near(nc[b], wantCPU[b]) {
				t.Errorf("k=%v block %d: normalized %v/%v, want %v/%v", k, b, nw[b], nc[b], want[b], wantCPU[b])
			}
			if !near(wall[b], want[b]*k) || !near(cpu[b], wantCPU[b]*k) {
				t.Errorf("k=%v block %d: raw %v/%v, want %v/%v", k, b, wall[b], cpu[b], want[b]*k, wantCPU[b]*k)
			}
		}
	}
}

// Time the host keeps the process off the CPU stretches wall time but not
// CPU time, in the pieces and the references alike; CPU time is normalized
// by the references' CPU time, so it is left unchanged.
func TestBlockTimesOffCPU(t *testing.T) {
	nominal := refNominal.Seconds()
	pieces := []piece{{0, 2 * 0.6, 0.6}}
	refs := []refTime{{2 * nominal, nominal}, {2 * nominal, nominal}}
	_, _, nw, nc := blockTimes(pieces, refs, 1)
	if !near(nw[0], 0.6) || !near(nc[0], 0.6) {
		t.Errorf("normalized %v/%v, want 0.6/0.6", nw[0], nc[0])
	}
}

// Each piece is normalized by the mean of the refWindow references on each
// side of it, fewer at the ends of the run.
func TestBlockTimesWindow(t *testing.T) {
	if refWindow != 3 {
		t.Skip("written for a window of 3")
	}
	nominal := refNominal.Seconds()
	refs := make([]refTime, 9)
	for i := range refs {
		r := nominal * float64(i+1)
		refs[i] = refTime{r, r}
	}
	var pieces []piece
	for i := 0; i < 8; i++ {
		pieces = append(pieces, piece{i, 1, 1})
	}
	_, _, nw, _ := blockTimes(pieces, refs, 8)
	// Piece i lies between refs i and i+1 and averages refs i-2 .. i+3.
	for i, w := range nw {
		lo, hi := max(0, i-2), min(len(refs)-1, i+3)
		mean := float64(lo+hi)/2 + 1 // refs[j] is j+1 nominal
		if !near(w, 1/mean) {
			t.Errorf("piece %d: normalized %v, want %v", i, w, 1/mean)
		}
	}
}
