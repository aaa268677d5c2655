package serve

import (
	"context"
	"slices"
	"sync"
	"testing"

	"asyncsgd/internal/sweep"
)

// gatedDispatcher announces each DispatchSweep on started and returns a
// document once the test closes the job's gate (announcing the return on
// returned), or ctx.Err() if ctx ends first.
type gatedDispatcher struct {
	started, returned chan string

	mu    sync.Mutex
	gates map[string]chan struct{}
}

func (d *gatedDispatcher) gate(id string) chan struct{} {
	d.mu.Lock()
	defer d.mu.Unlock()
	g, ok := d.gates[id]
	if !ok {
		g = make(chan struct{})
		d.gates[id] = g
	}
	return g
}

func (d *gatedDispatcher) DispatchSweep(ctx context.Context, jobID string, _ SweepRequest,
	_ func(sweep.CellResult), _ func(sweep.TelemetrySample)) (*Report, error) {
	d.started <- jobID
	select {
	case <-d.gate(jobID):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	d.returned <- jobID
	return &Report{Schema: sweep.SchemaV2}, nil
}

// finishJournal records JobFinished calls in order.
type finishJournal struct {
	mu       sync.Mutex
	finished []string
}

func (f *finishJournal) JobSubmitted(string, SweepRequest) {}

func (f *finishJournal) JobFinished(id, state string) {
	f.mu.Lock()
	f.finished = append(f.finished, id+" "+state)
	f.mu.Unlock()
}

// TestExecutorOverlapsOneJob pins the executor's one-job overlap: job 2's
// dispatch starts while job 1's blocks, job 3's waits for a free slot,
// terminal transitions follow submission order, Drain waits for both
// jobs in dispatch, and a job canceled while it waits for its
// predecessor ends canceled although its dispatch returned a document.
func TestExecutorOverlapsOneJob(t *testing.T) {
	d := &gatedDispatcher{
		started:  make(chan string, 3),
		returned: make(chan string, 3),
		gates:    make(map[string]chan struct{}),
	}
	jr := &finishJournal{}
	s := New(Config{Dispatcher: d, Journal: jr})
	defer s.Close()
	var jobs []*Job
	for i := 0; i < 3; i++ {
		j, err := s.Submit(tinyRequest(uint64(900 + i)))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	// Jobs 1 and 2 enter dispatch in either order.
	if got := []string{<-d.started, <-d.started}; !slices.Contains(got, "j1") || !slices.Contains(got, "j2") {
		t.Fatalf("dispatch started %v, want j1 and j2", got)
	}
	thirdWaits := func() {
		t.Helper()
		select {
		case id := <-d.started:
			t.Fatalf("%s dispatched while two jobs are in dispatch", id)
		default:
		}
		if st := jobs[2].Status(); st.State != JobQueued {
			t.Fatalf("job 3 is %s while two jobs are in dispatch", st.State)
		}
	}
	thirdWaits()

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()

	// Job 2's dispatch returns; it is canceled while it waits for job 1.
	close(d.gate("j2"))
	if got := <-d.returned; got != "j2" {
		t.Fatalf("dispatch of %s returned, want j2", got)
	}
	if changed, err := s.Cancel("j2"); err != nil || !changed {
		t.Fatalf("cancel j2: changed=%v err=%v", changed, err)
	}
	if st := jobs[1].Status(); st.State != JobRunning {
		t.Fatalf("job 2 is %s before job 1 finished, want %s", st.State, JobRunning)
	}
	thirdWaits()
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) with two jobs in dispatch", err)
	default:
	}

	close(d.gate("j1"))
	if got := <-d.started; got != "j3" {
		t.Fatalf("dispatch started %s, want j3", got)
	}
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) with job 3 in dispatch", err)
	default:
	}
	close(d.gate("j3"))
	if err := <-drained; err != nil {
		t.Fatal(err)
	}

	for i, want := range []string{JobDone, JobCanceled, JobDone} {
		if st := jobs[i].Status(); st.State != want {
			t.Errorf("job %d ended %s, want %s", i+1, st.State, want)
		}
	}
	if got, want := finishedOrder(s), []string{"j1", "j2", "j3"}; !slices.Equal(got, want) {
		t.Errorf("finished order %v, want %v", got, want)
	}
	jr.mu.Lock()
	defer jr.mu.Unlock()
	if want := []string{"j1 done", "j2 canceled", "j3 done"}; !slices.Equal(jr.finished, want) {
		t.Errorf("JobFinished order %v, want %v", jr.finished, want)
	}
}
