package hogwild

import (
	"testing"

	"asyncsgd/internal/grad"
)

// TestStrategyDeterminism: with one worker, every built-in strategy is a
// deterministic function of the seed — two runs must agree bit for bit on
// the final model and exactly on the work accounting. (Multi-worker real
// threads are inherently schedule-dependent; single-worker determinism is
// the property the cross-runtime differential suite's exact leg builds
// on.)
func TestStrategyDeterminism(t *testing.T) {
	strategies := []struct {
		name    string
		mk      func() Strategy
		needsSp bool // requires a grad.SparseOracle
	}{
		{"lock-free", NewLockFree, false},
		{"coarse-lock", NewCoarseLock, false},
		{"sparse-lock-free", NewSparseLockFree, true},
		{"bounded-staleness", func() Strategy { return NewBoundedStaleness(4) }, false},
		{"update-batching", func() Strategy { return NewUpdateBatching(8) }, false},
		{"epoch-fence", func() Strategy { return NewEpochFence(16) }, false},
	}
	for _, oc := range []struct {
		name   string
		sparse bool
	}{{"dense", false}, {"sparse", true}} {
		for _, sc := range strategies {
			if sc.needsSp && !oc.sparse {
				continue
			}
			t.Run(oc.name+"/"+sc.name, func(t *testing.T) {
				run := func() *Result {
					var oracle grad.Oracle
					if oc.sparse {
						oracle = sparseWorkload(t, 32, 0.15)
					} else {
						q, err := grad.NewIsoQuadratic(8, 1, 0.2, 4, nil)
						if err != nil {
							t.Fatal(err)
						}
						oracle = q
					}
					res, err := Run(Config{
						Workers: 1, TotalIters: 400, Alpha: 0.01,
						Oracle: oracle, Seed: 97, Strategy: sc.mk(),
					})
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				a, b := run(), run()
				if a.Iters != b.Iters || a.CoordOps != b.CoordOps {
					t.Fatalf("accounting differs: %d/%d vs %d/%d",
						a.Iters, a.CoordOps, b.Iters, b.CoordOps)
				}
				for j := range a.Final {
					if a.Final[j] != b.Final[j] {
						t.Fatalf("Final[%d]: %v vs %v", j, a.Final[j], b.Final[j])
					}
				}
			})
		}
	}
}
