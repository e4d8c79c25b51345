package design_test

import (
	"fmt"

	"fxdist/internal/design"
)

// ExampleDepths solves the directory design problem the paper inherits
// from Aho-Ullman: give bits to often-specified fields.
func ExampleDepths() {
	res, _ := design.Depths(8, []design.Field{
		{SpecProb: 0.9}, // hot: queries almost always specify it
		{SpecProb: 0.5},
		{SpecProb: 0.1}, // cold: rarely specified
	})
	fmt.Println("depths:", res.Depths)
	fmt.Println("sizes: ", res.Sizes())
	// Output:
	// depths: [6 2 0]
	// sizes:  [64 4 1]
}
