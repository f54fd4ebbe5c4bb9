package campaign

import (
	"testing"

	"wheels/internal/dataset"
	"wheels/internal/radio"
)

// BenchmarkTestLifecycle measures the steady-state cost of one full bulk
// test in the campaign loop — adapter setup, tick loop, KPI join, sink
// emission — on a warm process. The phone's reused adapter and the
// reusable collector mean allocs/op here is the marginal garbage of a
// test, not its working-set size; this is the number the fleet pays a quarter of a
// million times per seed sweep.
func BenchmarkTestLifecycle(b *testing.B) {
	cfg := QuickConfig(23, 40)
	c := New(cfg)
	ph := c.phones[0]
	t0 := c.Trace.Samples[0].T + 60
	var col dataset.Collector
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col.Reset()
		c.runBulk(&col, i+1, ph, t0, radio.Downlink, false, nil)
	}
}

// BenchmarkTestLifecycleRTT is the RTT-test counterpart: shorter ticks,
// no transport bulk loop, one emitted sample per 200 ms.
func BenchmarkTestLifecycleRTT(b *testing.B) {
	cfg := QuickConfig(23, 40)
	c := New(cfg)
	ph := c.phones[0]
	t0 := c.Trace.Samples[0].T + 60
	var col dataset.Collector
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col.Reset()
		c.runRTT(&col, i+1, ph, t0, false, nil)
	}
}
