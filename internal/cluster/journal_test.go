package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"asyncsgd/internal/serve"
	"asyncsgd/internal/sweep"
)

// syncCount reads the number of fsyncs the log has issued.
func (l *JobLog) syncCount() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncs
}

// encodeRecords is the on-disk form of records: length prefix + JSON.
func encodeRecords(t *testing.T, records []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range records {
		payload, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(payload))))
		buf.Write(payload)
	}
	return buf.Bytes()
}

// TestJobLogGroupCommit pins the journal's group commit: concurrent
// Appends share an fsync, written-then-synced records survive a reopen
// byte for byte, Close syncs what is written, and a closed log fails
// every later call.
func TestJobLogGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "joblog")
	l, _, err := OpenJobLog(path)
	if err != nil {
		t.Fatal(err)
	}

	// Pretend a leader's fsync is in flight, so each of the 16 Appends
	// writes its record and then waits; when it ends, one of them leads
	// a single fsync that covers all 16.
	l.mu.Lock()
	l.syncing = true
	l.mu.Unlock()
	const n = 16
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			errs <- l.Append(Record{Type: recComplete, Job: "j1", Cell: &sweep.CellResult{Cell: sweep.Cell{Index: i}}})
		}(i)
	}
	for {
		l.mu.Lock()
		written := l.written
		l.mu.Unlock()
		if written == n {
			break
		}
		runtime.Gosched()
	}
	l.mu.Lock()
	l.syncing = false
	l.cond.Broadcast()
	l.mu.Unlock()
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := l.syncCount(); got != 1 {
		t.Fatalf("%d concurrent Appends took %d fsyncs, want 1", n, got)
	}

	// Records only written are made durable by one sync.
	tail := []Record{
		{Type: recLease, Job: "j1", Lease: "L1", Worker: "w1", Cells: []int{0, 1}},
		{Type: recComplete, Job: "j1", Cell: &sweep.CellResult{Cell: sweep.Cell{Index: n}}},
	}
	for _, r := range tail {
		if _, err := l.write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.sync(); err != nil {
		t.Fatal(err)
	}
	if got := l.syncCount(); got != 2 {
		t.Fatalf("after one sync: %d fsyncs, want 2", got)
	}
	if err := l.sync(); err != nil || l.syncCount() != 2 {
		t.Fatalf("a sync with nothing new to sync: err %v, %d fsyncs, want 2", err, l.syncCount())
	}
	// Close syncs a record that was only written.
	finish := Record{Type: recFinish, Job: "j1", State: serve.JobDone}
	if _, err := l.write(finish); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := l.syncCount(); got != 3 {
		t.Fatalf("Close with an unsynced record: %d fsyncs, want 3", got)
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	l2, records, err := OpenJobLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != n+len(tail)+1 {
		t.Fatalf("reopen found %d records, want %d", len(records), n+len(tail)+1)
	}
	seen := make(map[int]bool)
	for _, r := range records[:n] {
		if r.Type != recComplete || r.Cell == nil || seen[r.Cell.Index] {
			t.Fatalf("appended record came back as %+v", r)
		}
		seen[r.Cell.Index] = true
	}
	if want := append(append([]Record(nil), tail...), finish); !reflect.DeepEqual(records[n:], want) {
		t.Fatalf("written records came back as %+v, want %+v", records[n:], want)
	}
	if !bytes.Equal(onDisk, encodeRecords(t, records)) {
		t.Fatal("the file is not the byte encoding of its records")
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, onDisk) {
		t.Fatalf("reopen changed the file (err %v)", err)
	}

	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(finish); err == nil {
		t.Error("Append on a closed log succeeded")
	}
	if _, err := l2.write(finish); err == nil {
		t.Error("write on a closed log succeeded")
	}
	if err := l2.sync(); err == nil {
		t.Error("sync on a closed log succeeded")
	}
}

// TestJournalSyncsPerJob runs a 24-cell job on two local workers against
// a journaled coordinator: the job still writes 30 records (submit, 4
// leases, 24 completes, finish), and takes at most one fsync per lease's
// report stream plus the submit's and the finish's.
func TestJournalSyncsPerJob(t *testing.T) {
	path := filepath.Join(t.TempDir(), "joblog")
	c, err := NewCoordinatorWithLog(Config{BatchSize: 6}, path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := serve.New(serve.Config{Dispatcher: c, Journal: c})
	defer s.Close()
	ctx, stopWorkers := context.WithCancel(context.Background())
	defer stopWorkers()
	var workers sync.WaitGroup
	for i := 0; i < 2; i++ {
		w := NewLocalWorker(c, WorkerConfig{Name: fmt.Sprintf("sync-%d", i), MaxConcurrent: 1})
		workers.Add(1)
		go func() {
			defer workers.Done()
			_ = w.Run(ctx)
		}()
	}

	seed := uint64(24)
	job, err := s.Submit(serve.SweepRequest{
		Taus: []int{1, 2, 4, 8}, Workers: []int{1, 2}, Sparsity: []float64{0.3},
		Replicates: 3, Iters: 100, Seed: &seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitResult(t, job)
	// Drain appends the finish record; stopping the workers ends every
	// report stream.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	stopWorkers()
	workers.Wait()
	syncs := c.cfg.Log.syncCount()

	c.Close()
	l, records, err := OpenJobLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	types := make(map[string]int)
	for _, r := range records {
		if r.Job != job.ID() {
			t.Fatalf("record of unknown job: %+v", r)
		}
		types[r.Type]++
	}
	want := map[string]int{recSubmit: 1, recLease: 4, recComplete: 24, recFinish: 1}
	if len(records) != 30 || !reflect.DeepEqual(types, want) {
		t.Fatalf("job log holds %d records %v, want 30 %v", len(records), types, want)
	}
	if bound := int64(types[recLease] + 2); syncs > bound {
		t.Fatalf("%d fsyncs for one job, want ≤ leases + 2 = %d", syncs, bound)
	}
	t.Logf("%d records, %d fsyncs", len(records), syncs)
}
