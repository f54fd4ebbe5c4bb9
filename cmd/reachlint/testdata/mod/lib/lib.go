// Package lib holds one declaration for each case the checker tells apart.
package lib

// Used is called from the app's main.
func Used() {}

// TestOnly is called only from lib_test.go: unreached.
func TestOnly() {}

// ForSecond is called only from the second module's main: reached.
func ForSecond() {}

// Shape is the interface Square is converted to.
type Shape interface{ Area() float64 }

// Square reaches main only as a Shape.
type Square struct{ Side float64 }

// Area is reached through the conversion to Shape alone.
func (s Square) Area() float64 { return s.Side * s.Side }

// Plain is reached, but never converted to an interface.
type Plain struct{}

// Orphan is never called: unreached.
func (Plain) Orphan() {}

// Kept is unreached but allowlisted, so keptHelper is reached through it.
func Kept() { keptHelper() }

func keptHelper() {}
