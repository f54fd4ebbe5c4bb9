// Command second is a root in a second module.
package main

import "fix/lib"

func main() { lib.ForSecond() }
