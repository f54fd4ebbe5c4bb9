// Command app is the fixture module's root.
package main

import (
	"fmt"

	"fix/lib"
)

func main() {
	lib.Used()
	var s lib.Shape = lib.Square{Side: 2}
	fmt.Println(s != nil, lib.Plain{})
}
