package sweep

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"

	"asyncsgd/internal/grad"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/vec"
)

// TestSharedPoolAdmitsRunsInOrder pins the process-wide pool: runs that
// leave MaxConcurrent at 0 share one GOMAXPROCS-wide gate and are
// admitted FIFO across runs, a run waiting for its turn honors its ctx,
// and a run with a private pool does not wait at all. Run A's cells
// block in Oracle.Make until the test releases them, so every step is
// ordered by channels.
func TestSharedPoolAdmitsRunsInOrder(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	var (
		mu       sync.Mutex
		inFlight int // Oracle.Make calls minus OnResult calls
		peak     int
	)
	made := make(chan string, 64)
	release := map[string]chan struct{}{
		"A": make(chan struct{}, 64),
		"B": make(chan struct{}, 64),
	}
	spec := func(run string, cells int) Spec {
		inner := quadOracle()
		return Spec{
			Seed:     11,
			Runtimes: []Runtime{Machine},
			Oracles: []Oracle{{Name: inner.Name, Make: func(d int, r *rng.Rand) (grad.Oracle, vec.Dense, error) {
				mu.Lock()
				inFlight++
				peak = max(peak, inFlight)
				mu.Unlock()
				made <- run
				<-release[run]
				return inner.Make(d, r)
			}}},
			Strategies: []Strategy{LockFree()},
			Alphas:     []float64{0.05},
			Replicates: cells,
			Iters:      20,
			OnResult: func(CellResult) {
				mu.Lock()
				inFlight--
				mu.Unlock()
			},
		}
	}
	type outcome struct {
		res []CellResult
		err error
	}
	start := func(ctx context.Context, s Spec) chan outcome {
		ch := make(chan outcome, 1)
		go func() {
			res, err := RunContext(ctx, s)
			ch <- outcome{res, err}
		}()
		return ch
	}

	// Run A fills the pool and holds the admission token: its last cell
	// waits for a slot.
	doneA := start(context.Background(), spec("A", procs+1))
	for i := 0; i < procs; i++ {
		if run := <-made; run != "A" {
			t.Fatalf("cell of run %s started while run A was admitting", run)
		}
	}
	doneB := start(context.Background(), spec("B", 2))

	// A run with a private pool runs while the shared one is full.
	private := spec("private", 2)
	private.Oracles = []Oracle{quadOracle()}
	private.OnResult = nil
	private.MaxConcurrent = 1
	if res, err := Run(private); err != nil || len(res) != 2 || res[0].Err != "" || res[1].Err != "" {
		t.Fatalf("private-pool run: err %v, results %+v", err, res)
	}

	// A run waiting for the token returns when its ctx ends, every cell
	// canceled.
	ctx, cancel := context.WithCancel(context.Background())
	waiter := spec("C", 3)
	waiter.OnResult = nil
	doneC := start(ctx, waiter)
	cancel()
	c := <-doneC
	if !errors.Is(c.err, context.Canceled) || len(c.res) != 3 {
		t.Fatalf("canceled waiter: err %v, %d results", c.err, len(c.res))
	}
	for i, r := range c.res {
		if r.Err != ErrCanceled {
			t.Fatalf("canceled waiter cell %d: Err %q, want %q", i, r.Err, ErrCanceled)
		}
	}

	// One of A's cells ends: the freed slot goes to A's last cell, not to
	// run B, which waits for the token A hands on after that admission.
	release["A"] <- struct{}{}
	if run := <-made; run != "A" {
		t.Fatalf("run %s started a cell before run A's last admission", run)
	}
	for i := 0; i < procs; i++ {
		release["A"] <- struct{}{}
	}
	for i := 0; i < 2; i++ {
		if run := <-made; run != "B" {
			t.Fatalf("cell of run %s started after run A finished admitting", run)
		}
		release["B"] <- struct{}{}
	}
	for name, done := range map[string]chan outcome{"A": doneA, "B": doneB} {
		if o := <-done; o.err != nil {
			t.Fatalf("run %s: %v", name, o.err)
		}
	}
	if peak > procs {
		t.Fatalf("%d cells in flight across two runs, pool capacity %d", peak, procs)
	}
}
