package hogwild

import (
	"errors"
	"math"
	"testing"

	"asyncsgd/internal/grad"
)

func TestRunFullValidation(t *testing.T) {
	q, err := grad.NewIsoQuadratic(2, 1, 0.2, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := []FullConfig{
		{},
		{Workers: 1, Epsilon: 0.1, Alpha0: 0.1, ItersPerEpoch: 10}, // nil oracle
		{Workers: 0, Epsilon: 0.1, Alpha0: 0.1, ItersPerEpoch: 10, Oracle: q},
		{Workers: 1, Epsilon: 0, Alpha0: 0.1, ItersPerEpoch: 10, Oracle: q},
	}
	for i, cfg := range bad {
		if _, err := RunFull(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("config %d accepted: %v", i, err)
		}
	}
}

func TestRunFullConverges(t *testing.T) {
	q, err := grad.NewIsoQuadratic(3, 1, 0.4, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunFull(FullConfig{
		Workers: 3, Epsilon: 0.05, Alpha0: 0.5, ItersPerEpoch: 3000,
		Oracle: q, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs < 2 {
		t.Errorf("epochs = %d, want the Corollary-7.1 count > 1", res.Epochs)
	}
	if res.FinalDist > 3*math.Sqrt(0.05) {
		t.Errorf("final distance %v, want ≤ ~%v", res.FinalDist, math.Sqrt(0.05))
	}
}

func TestRunFullEpochOverride(t *testing.T) {
	q, err := grad.NewIsoQuadratic(2, 1, 0.2, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunFull(FullConfig{
		Workers: 2, Epsilon: 0.1, Alpha0: 0.3, ItersPerEpoch: 500,
		Oracle: q, Seed: 9, Epochs: 5, Strategy: NewCoarseLock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs != 5 {
		t.Errorf("epochs = %d, want 5", res.Epochs)
	}
}
