package hogwild

import (
	"testing"

	"asyncsgd/internal/atomicfloat"
	"asyncsgd/internal/data"
	"asyncsgd/internal/grad"
	"asyncsgd/internal/rng"
)

// TestStepperStepAllocFree: every built-in strategy's Step (and Flush,
// for the batching discipline) must perform zero heap allocations in
// steady state — the hogwild inner loop is the throughput claim of the
// paper's §8 story, and a per-iteration allocation would put the
// allocator and GC on it.
func TestStepperStepAllocFree(t *testing.T) {
	quad, err := grad.NewIsoQuadratic(16, 1, 0.3, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
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

	cases := []struct {
		name   string
		mk     func() Strategy
		oracle grad.Oracle
	}{
		{"lock-free", NewLockFree, quad},
		{"coarse-lock", NewCoarseLock, quad},
		{"sparse-lock-free", NewSparseLockFree, sls},
		{"bounded-staleness", func() Strategy { return NewBoundedStaleness(4) }, quad},
		{"bounded-staleness-sparse", func() Strategy { return NewBoundedStaleness(4) }, sls},
		{"update-batching", func() Strategy { return NewUpdateBatching(4) }, quad},
		{"update-batching-sparse", func() Strategy { return NewUpdateBatching(4) }, sls},
		{"epoch-fence", func() Strategy { return NewEpochFence(8) }, quad},
		{"epoch-fence-sparse", func() Strategy { return NewEpochFence(8) }, sls},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			strat := tc.mk()
			model := atomicfloat.New(tc.oracle.Dim(), atomicfloat.Packed)
			if err := strat.Bind(model, 0.01); err != nil {
				t.Fatal(err)
			}
			st, err := strat.NewStepper(0, tc.oracle.CloneFor(0), rng.NewStream(7, 1))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 32; i++ { // warm: internal buffer capacities
				st.Step()
			}
			allocs := testing.AllocsPerRun(100, func() { st.Step() })
			if allocs != 0 {
				t.Errorf("%s: Step allocs = %v, want 0", tc.name, allocs)
			}
			if f, ok := st.(Flusher); ok {
				allocs = testing.AllocsPerRun(100, func() {
					st.Step()
					f.Flush()
				})
				if allocs != 0 {
					t.Errorf("%s: Step+Flush allocs = %v, want 0", tc.name, allocs)
				}
			}
		})
	}
}

// TestVectorBulkPathsAllocFree: the bulk and gather view-read fast paths
// allocate nothing regardless of layout.
func TestVectorBulkPathsAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		v    *atomicfloat.Vector
	}{
		{"packed", atomicfloat.New(64, atomicfloat.Packed)},
		{"banked", atomicfloat.New(64, atomicfloat.Banked)},
		{"padded", atomicfloat.New(64, atomicfloat.Padded)},
	} {
		dst := make([]float64, 64)
		idx := []int{0, 7, 31, 63}
		gath := make([]float64, len(idx))
		run := make([]float64, 24)
		allocs := testing.AllocsPerRun(100, func() {
			tc.v.LoadAll(dst)
			tc.v.GatherInto(gath, idx)
			tc.v.FetchAdd(11, 0.5)
			tc.v.FetchAddScaledRun(3, run, 1)
			tc.v.FetchAddScaledRun(3, run, -0.25)
			tc.v.StoreRun(40, run)
		})
		if allocs != 0 {
			t.Errorf("%s: bulk-path allocs = %v, want 0", tc.name, allocs)
		}
	}
}
