package main

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFixture runs the checker over testdata/mod, a module whose app main
// reaches some of package lib, whose nested module "second" is a root of its
// own, and whose package fixture only lib's test imports. The checker must
// report the function only a test calls, the method of a type never
// converted to an interface, the stale declaration entry and the stale
// package entry (lib, which a main links) — and nothing reached only through
// an interface conversion, only from the second module, or only through an
// allowlisted declaration, nor anything in the allowlisted package fixture.
// With fixture's entry commented out, its declaration is reported too: no
// package is exempt for being imported by tests alone.
func TestFixture(t *testing.T) {
	const base = "cmd/reachlint/allowlist.txt:4 fix/lib.Used (stale allowlist entry)\n" +
		"cmd/reachlint/allowlist.txt:6 fix/lib (stale allowlist entry)\n"
	const lib = "lib/lib.go:8 fix/lib.TestOnly\n" +
		"lib/lib.go:26 fix/lib.Plain.Orphan\n"
	for _, tc := range []struct {
		name   string
		listed bool
		want   string
	}{
		{"fixture listed", true, base + lib},
		{"fixture unlisted", false, base + "fixture/fixture.go:5 fix/fixture.Helper\n" + lib},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := "testdata/mod"
			if !tc.listed {
				root = copyTree(t, root)
				path := filepath.Join(root, allowlistPath)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				data = []byte(strings.Replace(string(data), "\nfix/fixture ", "\n# fix/fixture ", 1))
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var out bytes.Buffer
			n, err := run(root, &out)
			if err != nil {
				t.Fatal(err)
			}
			if got, lines := out.String(), strings.Count(tc.want, "\n"); got != tc.want || n != lines {
				t.Errorf("reachlint reported %d lines:\n%s\nwant %d:\n%s", n, got, lines, tc.want)
			}
		})
	}
}

// copyTree copies the directory tree at src into a temporary directory and
// returns that directory.
func copyTree(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}
