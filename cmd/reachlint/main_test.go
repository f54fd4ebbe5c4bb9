package main

import (
	"bytes"
	"testing"
)

// TestFixture runs the checker over testdata/mod, a module whose app main
// reaches some of package lib and whose nested module "second" is a root of
// its own. The checker must report the function only a test calls, the
// method of a type never converted to an interface, and the stale allowlist
// entry — and nothing reached only through an interface conversion, only
// from the second module, or only through an allowlisted declaration.
func TestFixture(t *testing.T) {
	var out bytes.Buffer
	n, err := run("testdata/mod", &out)
	if err != nil {
		t.Fatal(err)
	}
	want := "cmd/reachlint/allowlist.txt:3 fix/lib.Used (stale allowlist entry)\n" +
		"lib/lib.go:8 fix/lib.TestOnly\n" +
		"lib/lib.go:26 fix/lib.Plain.Orphan\n"
	if got := out.String(); got != want || n != 3 {
		t.Errorf("reachlint reported %d lines:\n%s\nwant 3:\n%s", n, got, want)
	}
}
