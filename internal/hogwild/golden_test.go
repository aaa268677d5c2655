package hogwild

import (
	"math"
	"testing"

	"asyncsgd/internal/data"
	"asyncsgd/internal/grad"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/vec"
)

// Golden-trajectory regression for the real-thread runtime: single-worker
// runs are deterministic (one goroutine, sequential claims), so a seeded
// run must reproduce the exact final model bits recorded before the
// hot-path overhaul (stride-layout atomic vector, LoadAll/GatherInto
// steppers). A changed rounding, a reordered update, or a lost iteration
// shows up as a bit mismatch.

func assertGolden(t *testing.T, name string, got vec.Dense, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: dim %d, want %d", name, len(got), len(want))
	}
	for i, w := range want {
		if g := math.Float64bits(got[i]); g != w {
			t.Errorf("%s: coord %d = %v (0x%016x), want 0x%016x",
				name, i, got[i], g, w)
		}
	}
}

// lockStepBits is the shared trajectory of every consistent-ordering
// strategy with one worker: lock-free, coarse-lock, striped-lock,
// bounded-staleness and epoch-fence all apply the same updates in the
// same order and must land on identical bits.
var lockStepBits = []uint64{
	0x3f9abac95fae5cf9, 0x3f98b5880d851b22, 0x3fa58f428abb02d9, 0x3faa401c65a63a04,
	0x3f6360da7f13e8d6, 0xbfa3ef8e328172dd, 0xbf84806924c5c394, 0xbf9f8da72f1522ae,
}

func TestGoldenSingleWorkerStrategies(t *testing.T) {
	q, err := grad.NewIsoQuadratic(8, 1, 0.3, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mk   func() Strategy
		want []uint64
	}{
		{"lock-free", NewLockFree, lockStepBits},
		{"coarse-lock", NewCoarseLock, lockStepBits},
		{"striped-lock", func() Strategy { return NewStripedLock(8) }, lockStepBits},
		{"striped-lock-default", func() Strategy { return NewStripedLock(0) }, lockStepBits},
		{"bounded-staleness", func() Strategy { return NewBoundedStaleness(2) }, lockStepBits},
		{"epoch-fence", func() Strategy { return NewEpochFence(8) }, lockStepBits},
		{"update-batching", func() Strategy { return NewUpdateBatching(4) }, []uint64{
			0x3f9b36bd7b4376fb, 0x3f9919a16435d039, 0x3fa5f9471718baa9, 0x3fab16bec24254c0,
			0x3f5534fe4c40dcf0, 0xbfa4851758768ae6, 0xbf7e3d1280e53f5f, 0xbfa049d14fd8defc,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(Config{
				Workers: 1, TotalIters: 1000, Alpha: 0.02,
				Oracle: q, Seed: 11, Strategy: tc.mk(),
			})
			if err != nil {
				t.Fatal(err)
			}
			assertGolden(t, tc.name, res.Final, tc.want)
		})
	}
}

func TestGoldenSingleWorkerSparse(t *testing.T) {
	gen := rng.New(404)
	ds, err := data.GenLinear(data.LinearConfig{Samples: 64, Dim: 32, NoiseStd: 0.05}, gen)
	if err != nil {
		t.Fatal(err)
	}
	if err := data.SparsifyRows(ds, 0.2, gen); err != nil {
		t.Fatal(err)
	}
	sls, err := grad.NewSparseLeastSquares(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Workers: 1, TotalIters: 1000, Alpha: 0.01,
		Oracle: sls, Seed: 11, Strategy: NewSparseLockFree(),
	})
	if err != nil {
		t.Fatal(err)
	}
	assertGolden(t, "sparse-lock-free", res.Final, []uint64{
		0xc19ed8e2b9f358d4, 0x4138830efacb8040, 0xc189122cf1a9688e, 0xc1b5a0cadc0b7869,
		0xc1c0d922fe18182e, 0x41b87a646d580266, 0x41c7c3bbea514f8c, 0x41a910f44f4f60b2,
		0x41b5a1d44a84db75, 0xc17b442edb5c7379, 0x41c1fb0612ed7b7b, 0x415d923c87ff8000,
		0xc19f74246a0856bf, 0xc1db0f22ff90e3d8, 0xc1b97f1126c8f9dc, 0xc15daa9003177680,
		0x41682a10c0ae3c2f, 0xc19e78ba4d4542e8, 0x41da9e344b975ba6, 0x41e03551ebca888e,
		0xc1d103efa53f1746, 0x41a6b2dcc41c8cfe, 0x41a738fa65d86363, 0x41a0d11fec63a635,
		0x41cb807485ae62b1, 0x41c1d0b0540869c6, 0x4188817e4a90eb78, 0x41c38fe3c054c9ec,
		0xc1a0b511317ae1ac, 0xc1b6f599b9985b00, 0x41a37cc6bec8d976, 0xc1a3b0ea5689e58d,
	})
}
