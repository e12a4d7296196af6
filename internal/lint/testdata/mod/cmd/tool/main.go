// Command tool is the fixture CLI: wall-time reporting is allowed in
// cmd packages, and its references keep internal exports alive.
package main

import (
	"fmt"
	"time"

	"fixture/internal/dead"
	"fixture/internal/serve"
)

func main() {
	start := time.Now()
	fmt.Println(time.Since(start))
	dead.CmdOnly()
	fmt.Println(dead.Level(1), serve.Latency(serve.Stamp()))
}
