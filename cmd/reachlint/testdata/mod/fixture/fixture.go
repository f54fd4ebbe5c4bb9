// Package fixture is imported by a test alone: no main links it.
package fixture

// Helper is called only from lib_test.go.
func Helper() {}
