package campaign

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"wheels/internal/dataset"
)

// engineDigest runs cfg through the given engine and shard count and
// returns the dataset fingerprint — the combined per-table SHA-256 of
// exactly the bytes Save would write.
func engineDigest(t testing.TB, cfg Config, engine string, shards int) string {
	t.Helper()
	cfg.Engine = engine
	h := dataset.NewHashSink()
	RunShardedTo(cfg, shards, 2, h)
	if err := h.Flush(); err != nil {
		t.Fatalf("flushing hash sink: %v", err)
	}
	return h.Sum()
}

// TestBatchScalarDifferential is the differential harness of the
// production engine (EngineBatch, the per-phone timeline engine): for every
// (seed, shard-count) cell it runs the scalar oracle and the production
// engine over identical inputs and requires byte-identical dataset output.
// The production engine has no golden of its own — the scalar engine is
// the ground truth, and this equivalence is the only contract that makes
// the default trustworthy.
func TestBatchScalarDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential matrix is slow")
	}
	for seed := int64(23); seed <= 27; seed++ {
		for _, shards := range []int{1, 4, 8} {
			seed, shards := seed, shards
			t.Run(fmt.Sprintf("seed%d_shards%d", seed, shards), func(t *testing.T) {
				t.Parallel()
				cfg := QuickConfig(seed, 40)
				scalar := engineDigest(t, cfg, EngineScalar, shards)
				batch := engineDigest(t, cfg, EngineBatch, shards)
				if scalar != batch {
					t.Errorf("digest mismatch: scalar %s, batch %s", scalar, batch)
				}
			})
		}
	}
}

// TestBatchScalarDifferentialFullConfig runs one differential cell with
// every optional subsystem enabled (passive loggers, static batteries,
// speed tests, apps), so every phase kind the phones run ahead of the
// merge is compared against the oracle's phase-barrier schedule.
func TestBatchScalarDifferentialFullConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("full-config differential run is slow")
	}
	cfg := fullCellConfig()
	for _, shards := range []int{1, 4} {
		scalar := engineDigest(t, cfg, EngineScalar, shards)
		batch := engineDigest(t, cfg, EngineBatch, shards)
		if scalar != batch {
			t.Errorf("shards=%d: digest mismatch: scalar %s, batch %s", shards, scalar, batch)
		}
	}
}

// TestBatchGoldenUnchanged runs the golden-config campaign through the
// production engine and asserts it reproduces the committed seed-23 hash.
// The golden file may only ever be regenerated by the scalar oracle; the
// production engine matching it proves end-to-end byte identity on the
// exact bytes the repository pins.
func TestBatchGoldenUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("golden campaign run is slow")
	}
	cfg := goldenConfig()
	cfg.Engine = EngineBatch
	ds := New(cfg).Run()
	got := fmt.Sprintf("%x", sha256.Sum256(exportBytes(t, ds)))
	raw, err := os.ReadFile(goldenHashFile)
	if err != nil {
		t.Fatalf("reading golden hash: %v", err)
	}
	want := strings.TrimSpace(string(raw))
	if got != want {
		t.Errorf("batch-engine seed-23 dataset hash = %s, want golden %s\n"+
			"the production engine diverged from the scalar oracle; fix the "+
			"engine — never refresh the golden from a production run", got, want)
	}
}

// FuzzBatchScalarEquivalence fuzzes the differential harness over the
// campaign seed, the route truncation, the shard count, and the optional
// phases. The phone count is fixed at three — it is the paper's testbed
// shape and is baked into operator enumeration, so it is not a fuzzable
// dimension. Any corpus entry where the two engines disagree on a single
// byte is a bug in the production engine.
func FuzzBatchScalarEquivalence(f *testing.F) {
	f.Add(int64(23), uint8(20), uint8(1), false, false)
	f.Add(int64(24), uint8(35), uint8(4), true, false)
	f.Add(int64(99), uint8(50), uint8(8), false, true)
	f.Fuzz(func(t *testing.T, seed int64, km, shards uint8, static, speed bool) {
		kmLimit := 10 + float64(km%50) // 10..59 km keeps a run under a second
		nShards := 1 + int(shards%8)   // 1..8
		cfg := QuickConfig(seed, kmLimit)
		cfg.EnableStatic = static
		cfg.EnableSpeedTest = speed
		scalar := engineDigest(t, cfg, EngineScalar, nShards)
		batch := engineDigest(t, cfg, EngineBatch, nShards)
		if scalar != batch {
			t.Errorf("seed=%d km=%.0f shards=%d static=%v speed=%v: digest mismatch: scalar %s, batch %s",
				seed, kmLimit, nShards, static, speed, scalar, batch)
		}
	})
}
