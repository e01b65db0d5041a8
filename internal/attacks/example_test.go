package attacks_test

import (
	"context"
	"fmt"

	"vpsec/internal/attacks"
)

// ExampleRunVariant evaluates one Table II pattern — the receiver
// trains a known index, the sender's secret-dependent store modifies
// the shared entry, the receiver times its own trigger — and prints
// the paper's decision metric. Jobs: 8 fans the trials over eight
// workers; the p-value is identical to a sequential run.
func ExampleRunVariant() {
	v, err := attacks.FindVariant("R^KI, S^SI', R^KI")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	opt := attacks.Options{
		Predictor: attacks.LVP,
		Runs:      10,
		Seed:      42,
		Jobs:      8,
	}
	res, err := attacks.RunVariant(context.Background(), v, opt)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("%v: effective=%v\n", v.Category, res.Effective())
	// Output:
	// Train + Test: effective=true
}
