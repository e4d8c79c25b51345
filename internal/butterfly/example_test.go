package butterfly_test

import (
	"fmt"

	"fxdist/internal/butterfly"
)

// ExampleNew routes one message through the simulated Butterfly
// interconnect.
func ExampleNew() {
	nw, _ := butterfly.New(8)
	stats, _ := nw.Run([]butterfly.Message{{Src: 5, Dst: 2}})
	fmt.Printf("%d stages, delivered in %d cycles\n", nw.Stages(), stats.Cycles)
	// Output:
	// 3 stages, delivered in 4 cycles
}
