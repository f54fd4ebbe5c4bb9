package campaign

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"wheels/internal/dataset"
)

// TestParallelSinkSeed23 pins the dataset writer on real campaign output:
// the seed-23 record stream written through ParallelCSVWriter in 512-row
// members is byte-identical across 1, 2, and 8 workers, and decompresses
// to exactly the tables exportBytes reads from the default member size.
// The writer's encoding is held to the encoding/csv oracle in the dataset
// package's tests, and exportBytes's form to the seed-23 golden.
func TestParallelSinkSeed23(t *testing.T) {
	d := New(QuickConfig(23, 60)).Run()
	want := exportBytes(t, d)

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
		tables, err := filepath.Glob(filepath.Join(dir, "*.csv.gz"))
		if err != nil || len(tables) == 0 {
			t.Fatalf("no tables written: %v", err)
		}
		sort.Strings(tables)
		raw := map[string][]byte{}
		var got bytes.Buffer
		for _, p := range tables {
			name := filepath.Base(p)
			raw[name] = readFile(t, p)
			got.WriteString(strings.TrimSuffix(name, ".gz"))
			got.WriteByte(0)
			got.Write(gunzip(t, raw[name]))
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("workers=%d: 512-row members decompress differently from the default members", workers)
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
