package lib

import (
	"testing"

	"fix/fixture"
)

func TestTestOnly(t *testing.T) {
	TestOnly()
	fixture.Helper()
}
