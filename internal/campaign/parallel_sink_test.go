package campaign

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"testing"

	"wheels/internal/dataset"
)

// TestParallelSinkSeed23 pins the parallel export path on real campaign
// output: the seed-23 record stream written through ParallelCSVWriter is
// byte-identical across 1, 2, and 8 workers, and decompresses to exactly
// the plain CSV Save writes.
func TestParallelSinkSeed23(t *testing.T) {
	d := New(QuickConfig(23, 60)).Run()

	plainDir := t.TempDir()
	if err := d.Save(plainDir); err != nil {
		t.Fatal(err)
	}
	tables, err := filepath.Glob(filepath.Join(plainDir, "*.csv"))
	if err != nil || len(tables) == 0 {
		t.Fatalf("no plain tables written: %v", err)
	}

	var first map[string][]byte
	for _, workers := range []int{1, 2, 8} {
		dir := t.TempDir()
		pw, err := dataset.NewParallelCSVWriter(dir, workers, 512)
		if err != nil {
			t.Fatal(err)
		}
		d.EmitTo(pw)
		if err := pw.Flush(); err != nil {
			t.Fatal(err)
		}
		raw := map[string][]byte{}
		for _, p := range tables {
			name := filepath.Base(p) + ".gz"
			b := readFile(t, filepath.Join(dir, name))
			raw[name] = b
			if got, want := gunzip(t, b), readFile(t, p); !bytes.Equal(got, want) {
				t.Errorf("workers=%d: %s decompresses differently from Save's CSV", workers, name)
			}
		}
		if first == nil {
			first = raw
			continue
		}
		for name := range first {
			if !bytes.Equal(first[name], raw[name]) {
				t.Errorf("workers=%d: %s compressed bytes differ from workers=1", workers, name)
			}
		}
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func gunzip(t *testing.T, b []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer zr.Close()
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
