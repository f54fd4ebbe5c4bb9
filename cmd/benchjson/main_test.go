package main

import "testing"

func f(v float64) *float64 { return &v }

// TestMergeBest pins how -count=N repeats merge: each benchmark keeps exactly
// the repeat with the lowest ns/op — all fields from that one run, nothing
// blended — with iterations summed and first-seen order preserved.
func TestMergeBest(t *testing.T) {
	in := []Result{
		{Name: "BenchmarkFleetBatch", Package: "p", Iterations: 10, NsPerOp: 300,
			BytesPerOp: f(1000), Metrics: map[string]float64{"seeds/hour": 36000}},
		{Name: "BenchmarkFleetStreaming", Package: "p", Iterations: 5, NsPerOp: 300,
			Metrics: map[string]float64{"seeds/hour": 37000}},
		{Name: "BenchmarkFleetBatch", Package: "p", Iterations: 20, NsPerOp: 250,
			BytesPerOp: f(900), Metrics: map[string]float64{"seeds/hour": 42000, "live-MB/seed": 3}},
		{Name: "BenchmarkFleetBatch", Package: "p", Iterations: 15, NsPerOp: 280,
			Metrics: map[string]float64{"seeds/hour": 39000}},
	}
	out := mergeBest(in)
	if len(out) != 2 {
		t.Fatalf("got %d entries, want 2", len(out))
	}
	b := out[0]
	if b.Name != "BenchmarkFleetBatch" || out[1].Name != "BenchmarkFleetStreaming" {
		t.Fatalf("order: %q, %q", out[0].Name, out[1].Name)
	}
	if b.Iterations != 45 || b.NsPerOp != 250 {
		t.Errorf("iters %d ns %v, want 45 / 250", b.Iterations, b.NsPerOp)
	}
	if b.BytesPerOp == nil || *b.BytesPerOp != 900 {
		t.Errorf("bytes should come from the fastest repeat: %v", b.BytesPerOp)
	}
	if got := b.Metrics["seeds/hour"]; got != 42000 {
		t.Errorf("seeds/hour = %v, want 42000 (fastest repeat's)", got)
	}
	if got := b.Metrics["live-MB/seed"]; got != 3 {
		t.Errorf("live-MB/seed = %v, want 3", got)
	}
	if out[1].NsPerOp != 300 || out[1].Metrics["seeds/hour"] != 37000 {
		t.Errorf("singleton changed: %+v", out[1])
	}
}
