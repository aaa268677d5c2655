package baseline

import (
	"errors"
	"math"
	"testing"

	"asyncsgd/internal/grad"
	"asyncsgd/internal/vec"
)

func isoOracle(t *testing.T, d int, sigma float64) grad.Oracle {
	t.Helper()
	q, err := grad.NewIsoQuadratic(d, 1, sigma, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestRunSequentialValidation(t *testing.T) {
	q := isoOracle(t, 2, 0.1)
	bad := []SeqConfig{
		{},
		{Oracle: q, Alpha: 0, Iters: 5},
		{Oracle: q, Alpha: 0.1, Iters: 0},
		{Oracle: q, Alpha: 0.1, Iters: 5, X0: vec.Dense{1}},
	}
	for i, cfg := range bad {
		if _, err := RunSequential(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("config %d accepted: %v", i, err)
		}
	}
}

func TestSequentialConvergesOnQuadratic(t *testing.T) {
	q := isoOracle(t, 3, 0.1)
	res, err := RunSequential(SeqConfig{
		Oracle: q, X0: vec.Dense{2, -2, 1}, Alpha: 0.1, Iters: 500,
		Seed: 1, TrackDist: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DistSq[len(res.DistSq)-1] > 0.2 {
		t.Errorf("final dist² = %v", res.DistSq[len(res.DistSq)-1])
	}
	if ht := res.HitTime(0.2); ht <= 0 {
		t.Errorf("HitTime = %d", ht)
	}
	if res.HitTime(1e-30) != -1 {
		t.Error("impossible target should give -1")
	}
}

func TestSequentialDeterministic(t *testing.T) {
	q := isoOracle(t, 2, 0.3)
	cfg := SeqConfig{Oracle: q, Alpha: 0.05, Iters: 100, Seed: 9}
	a, err := RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !vec.ApproxEqual(a.Final, b.Final, 0) {
		t.Error("same seed produced different results")
	}
}

func TestNoiselessContractionMatchesTheory(t *testing.T) {
	// With σ=0 on f=(1/2)‖x‖², x_T = (1−α)^T x_0 exactly — the quantity
	// the Section-5 analysis compares against.
	q, err := grad.NewQuad1D(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	alpha, T := 0.1, 25
	res, err := RunSequential(SeqConfig{
		Oracle: q, X0: vec.Dense{1}, Alpha: alpha, Iters: T, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Pow(1-alpha, float64(T))
	if math.Abs(res.Final[0]-want) > 1e-12 {
		t.Errorf("x_T = %v, want %v", res.Final[0], want)
	}
}

func TestMiniBatchReducesVariance(t *testing.T) {
	q := isoOracle(t, 2, 1.0)
	varOf := func(batch int) float64 {
		var acc float64
		const trials = 60
		for k := 0; k < trials; k++ {
			res, err := RunSequential(SeqConfig{
				Oracle: grad.NewMiniBatch(q, batch), Alpha: 0.1, Iters: 200, Seed: uint64(k),
			})
			if err != nil {
				t.Fatal(err)
			}
			d2, _ := vec.Dist2Sq(res.Final, q.Optimum())
			acc += d2
		}
		return acc / trials
	}
	v1, v8 := varOf(1), varOf(8)
	if v8 >= v1 {
		t.Errorf("batch-8 steady-state error %v not below batch-1 %v", v8, v1)
	}
}
