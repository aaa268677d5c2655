package hogwild

import (
	"math"
	"sort"
	"sync"

	"asyncsgd/internal/atomicfloat"
	"asyncsgd/internal/grad"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/vec"
)

// medianAggregate is the robust-aggregation defense against Byzantine
// gradients: workers contribute gradients into membership-wide rounds,
// and when the round is full its closer applies one update
// −α·m·median(g₁..g_m) — the coordinate-wise median of the m
// contributions, scaled by m so a fault-free round applies the same
// total mass as m independent SGD steps. A minority of sign-flipped,
// rescaled or NaN gradients cannot move the median beyond the honest
// range (non-finite contributions are excluded per coordinate before the
// median is taken), which is exactly the guarantee clipping cannot give
// against coordinated corruption.
//
// The round barrier is crash-safe through the Member stepper
// capability: Run retires every exiting worker (normal or crashed)
// from the membership, and a departure that completes the current round
// closes it, so survivors never wait on the gone. The price of
// consistency is a barrier per round — this is a defense, not a
// lock-free discipline, and its throughput sits near the coarse-lock
// baseline.
type medianAggregate struct {
	model *atomicfloat.Vector
	alpha float64

	mu      sync.Mutex
	cond    *sync.Cond
	members int // workers currently in the membership
	arrived int // contributions collected this round
	round   int64
	buf     [][]float64 // the arrived gradients (aliases contributor buffers)
	med     vec.Dense   // scratch: m·median, applied by the round closer
	vals    []float64   // scratch: per-coordinate finite values
}

// NewMedianAggregate returns the coordinate-median robust-aggregation
// strategy. Hogwild-only: the deterministic machine has no counterpart
// (a membership barrier has no meaning under the simulator's one-op-at-
// a-time scheduling), so sweep cells pairing it with the machine runtime
// report a cell error.
func NewMedianAggregate() Strategy { return &medianAggregate{} }

func (s *medianAggregate) Name() string { return "median-aggregate" }

func (s *medianAggregate) Bind(model *atomicfloat.Vector, alpha float64) error {
	s.model, s.alpha = model, alpha
	s.cond = sync.NewCond(&s.mu)
	s.members, s.arrived, s.round = 0, 0, 0
	s.buf = s.buf[:0]
	s.med = vec.NewDense(model.Dim())
	return nil
}

func (s *medianAggregate) NewStepper(_ int, oracle grad.Oracle, r *rng.Rand) (Stepper, error) {
	return &medianStepper{newPipeline(s.model, s.alpha, oracle, nil, r), s}, nil
}

// join admits one worker into the membership.
func (s *medianAggregate) join() {
	s.mu.Lock()
	s.members++
	s.mu.Unlock()
}

// leave retires one worker. If everyone else has already arrived, the
// departure is what completes the round — close it, or the arrivers wait
// forever.
func (s *medianAggregate) leave() {
	s.mu.Lock()
	s.members--
	if s.members > 0 && s.arrived == s.members {
		s.closeRound()
	}
	s.mu.Unlock()
}

// contribute adds one gradient to the current round and blocks until the
// round closes. The closer (the last arriver, or a leaver) applies the
// aggregated update; contribute returns the number of coordinate writes
// this caller issued (non-zero only for the closer).
func (s *medianAggregate) contribute(g vec.Dense) int {
	s.mu.Lock()
	my := s.round
	s.buf = append(s.buf, g)
	s.arrived++
	var writes int
	if s.arrived == s.members {
		writes = s.closeRound()
	} else {
		for s.round == my {
			s.cond.Wait()
		}
	}
	s.mu.Unlock()
	return writes
}

// closeRound aggregates and applies the round's contributions and wakes
// the waiters. Caller holds mu.
func (s *medianAggregate) closeRound() int {
	m := len(s.buf)
	writes := 0
	if m > 0 {
		for j := range s.med {
			s.vals = s.vals[:0]
			for _, g := range s.buf {
				if v := g[j]; !math.IsNaN(v) && !math.IsInf(v, 0) {
					s.vals = append(s.vals, v)
				}
			}
			s.med[j] = float64(m) * median(s.vals)
		}
		writes = applyDenseRuns(s.model, s.alpha, s.med)
	}
	s.buf = s.buf[:0]
	s.arrived = 0
	s.round++
	s.cond.Broadcast()
	return writes
}

// median returns the midpoint-convention median of vals (0 when empty —
// a coordinate on which every contribution was non-finite applies
// nothing). vals is scratch and may be reordered.
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	sort.Float64s(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

type medianStepper struct {
	pipeline
	s *medianAggregate
}

// Step draws a dense gradient and contributes it to the current round
// in place of pipeline.apply: the round's closer applies the median.
//
//asgd:hotpath
func (w *medianStepper) Step() int {
	// w.g is safe to hand to the round buffer: this stepper blocks in
	// contribute until the round that read it has closed.
	return w.gradient() + w.s.contribute(w.g)
}

// Join implements Member.
func (w *medianStepper) Join() { w.s.join() }

// Leave implements Member.
func (w *medianStepper) Leave() { w.s.leave() }
