package core

import (
	"errors"
	"testing"

	"asyncsgd/internal/contention"
	"asyncsgd/internal/grad"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/sched"
	"asyncsgd/internal/vec"
)

func mfOracle(t *testing.T) *grad.MatrixFactorization {
	t.Helper()
	mf, err := grad.NewMatrixFactorization(grad.MFConfig{
		M: 6, N: 6, Rank: 2, ObserveProb: 0.7,
	}, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	return mf
}

func TestSparseEpochValidation(t *testing.T) {
	q, err := grad.NewIsoQuadratic(4, 1, 0.2, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Sparse requires the capability.
	_, err = RunEpoch(EpochConfig{
		Threads: 2, TotalIters: 50, Alpha: 0.05, Oracle: q,
		Policy: &sched.RoundRobin{}, Sparse: true,
	})
	if !errors.Is(err, ErrBadConfig) {
		t.Errorf("dense oracle accepted in sparse mode: %v", err)
	}
	// Sparse is incompatible with momentum (dense velocity decay).
	_, err = RunEpoch(EpochConfig{
		Threads: 2, TotalIters: 50, Alpha: 0.05, Oracle: mfOracle(t),
		Policy: &sched.RoundRobin{}, Sparse: true, Momentum: 0.5,
	})
	if !errors.Is(err, ErrBadConfig) {
		t.Errorf("sparse+momentum accepted: %v", err)
	}
}

// TestSparseEpochStepsPerIteration checks the simulator-side O(nnz)
// claim: a sparse MF iteration costs 1 counter step + 2r reads + ≤2r
// updates, regardless of d = (m+n)·r.
func TestSparseEpochStepsPerIteration(t *testing.T) {
	mf := mfOracle(t)
	const T = 60
	dense, err := RunEpoch(EpochConfig{
		Threads: 3, TotalIters: T, Alpha: 0.02, Oracle: mf,
		Policy: &sched.RoundRobin{}, Seed: 5, X0: mf.InitNear(0.2, rng.New(7)),
	})
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := RunEpoch(EpochConfig{
		Threads: 3, TotalIters: T, Alpha: 0.02, Oracle: mf,
		Policy: &sched.RoundRobin{}, Seed: 5, X0: mf.InitNear(0.2, rng.New(7)),
		Sparse: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Dense: 1 + d reads + ≤d updates per iteration; sparse: 1 + 2r + ≤2r.
	maxSparse := T*(1+4+4) + 3*2 // + per-thread exit claims, slack
	if sparse.Stats.Steps > maxSparse {
		t.Errorf("sparse run took %d steps, want ≤ %d", sparse.Stats.Steps, maxSparse)
	}
	if sparse.Stats.Steps*2 >= dense.Stats.Steps {
		t.Errorf("sparse %d steps not clearly below dense %d", sparse.Stats.Steps, dense.Stats.Steps)
	}
}

// TestSparseEpochConservation replays the recorded iterations: because
// fetch&add commutes, the final model must equal x0 plus every applied
// update — the last accumulator of the paper's auxiliary sequence.
func TestSparseEpochConservation(t *testing.T) {
	mf := mfOracle(t)
	x0 := mf.InitNear(0.3, rng.New(19))
	res, err := RunEpoch(EpochConfig{
		Threads: 3, TotalIters: 80, Alpha: 0.05, Oracle: mf,
		Policy: &sched.MaxStale{Budget: 5}, Seed: 11, X0: x0,
		Sparse: true, Record: true, Track: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	accs := res.Accumulators()
	if !vec.ApproxEqual(accs[len(accs)-1], res.FinalX, 1e-9) {
		t.Errorf("conservation violated: accumulator %v vs model %v",
			accs[len(accs)-1], res.FinalX)
	}
	// Sparse records: gradients touch at most 2·rank coordinates, views
	// are zero off the read support.
	for _, rec := range res.Records {
		if nnz := rec.Grad.NNZ(); nnz > 4 {
			t.Fatalf("sparse gradient with %d non-zeros, want ≤ 4", nnz)
		}
	}
	// Touched-coordinate contention can only be tighter than interval
	// contention.
	tr := res.Tracker
	if tr.TauMaxTouched() > contention.TauMax(res.Windows) {
		t.Errorf("touched τmax %d exceeds interval τmax %d",
			tr.TauMaxTouched(), contention.TauMax(res.Windows))
	}
}

// TestSparseMatchesDenseSingleThread pins the sparse pipeline's
// semantics: with one thread there is no concurrency, so running the
// sparse pipeline must produce exactly the sequential SGD trajectory of
// the same sparse gradient stream.
func TestSparseMatchesDenseSingleThread(t *testing.T) {
	mf := mfOracle(t)
	x0 := mf.InitNear(0.2, rng.New(23))
	const T, alpha = 40, 0.05
	res, err := RunEpoch(EpochConfig{
		Threads: 1, TotalIters: T, Alpha: alpha, Oracle: mf,
		Policy: &sched.RoundRobin{}, Seed: 31, X0: x0, Sparse: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Replay sequentially with the worker's stream (Seed, id+1).
	o, _ := grad.AsSparse(mf.CloneFor(0))
	r := rng.NewStream(31, 1)
	x := x0.Clone()
	var g vec.Sparse
	var buf []float64
	for i := 0; i < T; i++ {
		buf, err = grad.GradSparseVia(&g, o, x, r, buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.AddScaledInto(x, -alpha); err != nil {
			t.Fatal(err)
		}
	}
	if !vec.ApproxEqual(res.FinalX, x, 1e-12) {
		t.Errorf("single-thread sparse run diverged from sequential replay:\n%v\nvs\n%v",
			res.FinalX, x)
	}
}
