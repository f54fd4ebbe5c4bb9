package fleet

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"wheels/internal/campaign"
	"wheels/internal/scenario"
)

// TestGridReportBytesPinned renders the text and HTML reports of a
// multi-scenario policy-grid sweep from a committed checkpoint and
// requires the pinned SHA-256 of every rendering: over both seeds, where
// each headline band bootstraps two values, and over the first seed alone,
// where every band is a one-value series. The checkpoint and the digests
// were made by
//
//	fleet -grid builtin -scenario dense-urban,random:1 -seeds 2 -quick -km 30 \
//	    -workers 1 -checkpoint grid_builtin.ckpt.jsonl -out r.txt -html r.html
//
// and the same command with -seeds 1 over that checkpoint. Every seed is
// resumed from the checkpoint, so no campaign runs here.
func TestGridReportBytesPinned(t *testing.T) {
	grid, err := scenario.LoadGrid("builtin")
	if err != nil {
		t.Fatal(err)
	}
	var sweep []Scenario
	for _, spec := range []string{"dense-urban", "random:1"} {
		sc, err := scenario.Resolve(spec)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := sc.Compile()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range grid.Policies {
			cell, err := p.Testbed(tb)
			if err != nil {
				t.Fatal(err)
			}
			sweep = append(sweep, Scenario{
				Name:       sc.Name(),
				PolicyName: p.Name,
				Testbed:    cell,
				Shapes:     sc.ShapeParams(),
				Configure:  sc.ApplySchedule,
			})
		}
	}
	ckpt, err := os.ReadFile("testdata/grid_builtin.ckpt.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	sha := func(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }
	for _, tc := range []struct {
		seeds      int
		text, html string
	}{
		{2, "93c3c825de1814e4539677e23f3428d66a2e3990da2d4a542cc5ce2eb6c5b6b4", "b6efe4d95103402f54e3f088b986e739102550142d8fc085b95c9e7d2f7ef824"},
		{1, "a5e485f50c528db0b696aa9db99c3db0f373f711d38382c223fa007358d32209", "811cc9a901ea721bd5ee741d43ea73d3ee49fbd6412159336456523b70725170"},
	} {
		path := filepath.Join(t.TempDir(), "ckpt.jsonl")
		if err := os.WriteFile(path, ckpt, 0o644); err != nil {
			t.Fatal(err)
		}
		base := campaign.QuickConfig(0, 200)
		base.KmLimit = 30
		rep, err := Run(Config{
			Base:       base,
			Scenarios:  sweep,
			StartSeed:  23,
			Seeds:      tc.seeds,
			Workers:    1,
			Checkpoint: path,
			Progress: func(ev Event) {
				if !ev.Resumed {
					t.Errorf("%s seed %d ran; every seed should resume from the checkpoint", ev.Scenario, ev.Seed)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		text := rep.RenderText()
		html, err := rep.HTML()
		if err != nil {
			t.Fatal(err)
		}
		if got := sha([]byte(text)); got != tc.text {
			t.Errorf("%d seeds: text report sha256 %s, want %s", tc.seeds, got, tc.text)
		}
		if got := sha(html); got != tc.html {
			t.Errorf("%d seeds: HTML report sha256 %s, want %s", tc.seeds, got, tc.html)
		}
		if rep.RenderText() != text {
			t.Errorf("%d seeds: a second rendering differs from the first", tc.seeds)
		}
	}
}
