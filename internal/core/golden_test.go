package core

import (
	"math"
	"testing"

	"asyncsgd/internal/contention"
	"asyncsgd/internal/data"
	"asyncsgd/internal/grad"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/sched"
	"asyncsgd/internal/vec"
)

// Golden-trajectory regression: seeded runs must reproduce the exact
// final model bits recorded before the allocation-free hot-path overhaul
// (concrete shm.Tag, in-place worker requests, dense tracker tables).
// The simulator is deterministic, so any drift — a reordered operation, a
// changed rng draw, a float expression rewritten into different rounding —
// shows up here as a bit mismatch long before it would move a statistic.

func assertBits(t *testing.T, name string, got vec.Dense, want []uint64) {
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

func TestGoldenDenseRoundRobin(t *testing.T) {
	q, err := grad.NewIsoQuadratic(8, 1, 0.3, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunEpoch(EpochConfig{
		Threads: 4, TotalIters: 500, Alpha: 0.05, Oracle: q,
		Policy: &sched.RoundRobin{}, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertBits(t, "dense/round-robin", res.FinalX, []uint64{
		0x3fb083cfa5d53f44, 0xbf9b69a8beb4d3fc, 0x3fa24b17e8fbac54, 0xbfa89273729a9076,
		0x3fabc25afd6066c0, 0xbfa59ef30fe60719, 0x3fb1001e3155bc0f, 0xbfa2d6b34e64efd0,
	})
}

func TestGoldenDenseRandomTracked(t *testing.T) {
	q, err := grad.NewIsoQuadratic(8, 1, 0.3, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunEpoch(EpochConfig{
		Threads: 3, TotalIters: 400, Alpha: 0.05, Oracle: q,
		Policy: &sched.Random{R: rng.New(7)}, Seed: 42, Track: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertBits(t, "dense/random", res.FinalX, []uint64{
		0x3fc0bbeb204315a5, 0xbfb02ac51b789619, 0x3fab99047e7ffd29, 0x3fb267ba756100e8,
		0xbf9ee91a5e47c3ba, 0xbfa03f0247832fa4, 0x3fae6cf942b4b8f8, 0x3f96080b92f2696e,
	})
	tr := res.Tracker
	if got := contention.TauMax(res.Windows); got != 7 {
		t.Errorf("TauMax = %d, want 7", got)
	}
	if got := contention.TauAvg(res.Windows); math.Abs(got-3.735) > 1e-12 {
		t.Errorf("TauAvg = %v, want 3.735", got)
	}
	if tr.Iterations() != 400 || tr.Completed() != 400 {
		t.Errorf("iterations=%d completed=%d, want 400/400", tr.Iterations(), tr.Completed())
	}
	if got := tr.MaxIncomplete(); got != 3 {
		t.Errorf("MaxIncomplete = %d, want 3", got)
	}
	if got := contention.MaxAdmissions(res.Windows); got != 4 {
		t.Errorf("MaxAdmissionsDuring = %d, want 4", got)
	}
}

func TestGoldenSparsePipeline(t *testing.T) {
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
	res, err := RunEpoch(EpochConfig{
		Threads: 4, TotalIters: 300, Alpha: 0.01, Oracle: sls,
		Policy: &sched.RoundRobin{}, Seed: 9, Sparse: true, Track: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertBits(t, "sparse/round-robin", res.FinalX, []uint64{
		0xc014994eb540f751, 0x3fe8ffc6d9f8439c, 0xbfe2815441e7bd52, 0x400d52ba57d0ad76,
		0xc00bb429b7bbea74, 0xbfd65b856395620c, 0xc010d57d6e399a6f, 0xc003b8809f19fb2d,
		0xc00e8652856a027b, 0x3ff297773aa10d80, 0xbffadaa2869d95ac, 0x40052cbd9bf98b37,
		0xc008883a501faa9b, 0x3ff7b2f562161af0, 0x40085a86b76f2106, 0x3ff66d364a94dc32,
		0x3ff1fa473625cced, 0xbfd1634b03e68c16, 0xc00b92218cfd7137, 0x3ff83f02a6a45270,
		0x4002fb48eaeb2670, 0xbfe709e02e1aeef6, 0xc009d55dc1bb2126, 0x4020e995bfc931e5,
		0xbfdebf94fcc6e33e, 0xbfea9a6f80a3067c, 0xc00b1f6d76a2a470, 0xc014d43218765e82,
		0x4025c83d9195e7b1, 0x3f9fe4a05c4d2280, 0xbffbabdd4deab322, 0xc01392b8dbbe2527,
	})
	if got := res.Tracker.TauMaxTouched(); got != 10 {
		t.Errorf("TauMaxTouched = %d, want 10", got)
	}
	if got := res.Tracker.Completed(); got != 300 {
		t.Errorf("Completed = %d, want 300", got)
	}
}

func TestGoldenGatedUnderAdversary(t *testing.T) {
	q, err := grad.NewIsoQuadratic(8, 1, 0.3, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunEpoch(EpochConfig{
		Threads: 4, TotalIters: 200, Alpha: 0.05, Oracle: q,
		Policy: &sched.MaxStale{Budget: 6}, Seed: 3, StalenessBound: 4, Track: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertBits(t, "gated/maxstale", res.FinalX, []uint64{
		0x3f971121b8428d75, 0xbfa24ceb00daa435, 0xbf6265d29abf0b20, 0x3fbafa5ca6fde85e,
		0x3f89c9729671c67a, 0xbfb6189b4c5f7f52, 0xbfb0463c0507a732, 0x3faa3c850a1b59fa,
	})
	if got := contention.MaxAdmissions(res.Windows); got != 3 {
		t.Errorf("MaxAdmissionsDuring = %d, want 3", got)
	}
	if got := res.Stats.Steps; got != 4004 {
		t.Errorf("Steps = %d, want 4004", got)
	}
}

func TestGoldenBatchDiscipline(t *testing.T) {
	q, err := grad.NewIsoQuadratic(8, 1, 0.3, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunEpoch(EpochConfig{
		Threads: 4, TotalIters: 200, Alpha: 0.05, Oracle: q,
		Policy: &sched.RoundRobin{}, Seed: 5, Batch: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertBits(t, "batch4/round-robin", res.FinalX, []uint64{
		0xbfa6565897b03c1e, 0xbf91495b8e861b93, 0x3fb61f78b65dc27a, 0x3faa38cb34a5e043,
		0x3fa8498ed6beeca8, 0x3fa427d3c40c9026, 0xbf7d7b65e40a42ae, 0xbfb0ac5dc930cea6,
	})
}

// TestGoldenTrackerReuse: repeated tracked runs of one configuration
// reproduce the same statistics — no state carries from one run's
// iteration record into the next.
func TestGoldenTrackerReuse(t *testing.T) {
	q, err := grad.NewIsoQuadratic(8, 1, 0.3, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		res, err := RunEpoch(EpochConfig{
			Threads: 3, TotalIters: 400, Alpha: 0.05, Oracle: q,
			Policy: &sched.Random{R: rng.New(7)}, Seed: 42, Track: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := contention.TauMax(res.Windows); got != 7 {
			t.Errorf("round %d: TauMax = %d, want 7", round, got)
		}
		if got := contention.TauAvg(res.Windows); math.Abs(got-3.735) > 1e-12 {
			t.Errorf("round %d: TauAvg = %v, want 3.735", round, got)
		}
	}
}
