package campaign

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden dataset hash")

const goldenHashFile = "testdata/golden_seed23.sha256"

// goldenConfig is the reference run the golden hash covers: a serial
// seed-23 campaign over the first 120 km with the passive loggers and
// static city batteries enabled, so every export path contributes bytes.
// It pins the scalar oracle explicitly: the golden is never computed from
// the batch engine, which the differential tests hold to the same bytes.
func goldenConfig() Config {
	cfg := QuickConfig(23, 120)
	cfg.Engine = EngineScalar
	cfg.EnablePassive = true
	cfg.EnableStatic = true
	return cfg
}

// TestGoldenDatasetSeed23 pins the exact bytes the serial campaign exports
// for seed 23. Hot-path optimizations must leave the simulation observably
// identical — same RNG draw sequence, same floating-point evaluation order —
// and this test is the regression gate: any change to the exported CSVs,
// however small, shows up as a hash mismatch. Refresh deliberately with
//
//	go test ./internal/campaign -run TestGoldenDatasetSeed23 -update
//
// only when an intentional model change alters the output.
func TestGoldenDatasetSeed23(t *testing.T) {
	if testing.Short() {
		t.Skip("golden campaign run is slow")
	}
	ds := New(goldenConfig()).Run()
	got := fmt.Sprintf("%x", sha256.Sum256(exportBytes(t, ds)))

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenHashFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenHashFile, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden hash updated: %s", got)
		return
	}

	want, err := os.ReadFile(goldenHashFile)
	if err != nil {
		t.Fatalf("reading golden hash (run with -update to create it): %v", err)
	}
	if got != strings.TrimSpace(string(want)) {
		t.Errorf("seed-23 dataset hash = %s, want %s\n"+
			"the exported bytes changed; if intentional, refresh with -update",
			got, strings.TrimSpace(string(want)))
	}
}
