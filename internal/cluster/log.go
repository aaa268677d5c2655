package cluster

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"asyncsgd/internal/serve"
	"asyncsgd/internal/sweep"
)

// The durable job log: an append-only file of length-prefixed JSON
// records (4-byte little-endian payload length, then the payload) that
// lets a coordinator restart with queued and partially-complete sweeps
// intact. Record types:
//
//   - "submit":   a job was accepted (id + normalized request)
//   - "lease":    a cell batch was leased to a worker (audit only —
//     leases are volatile; replay treats leased-but-incomplete cells as
//     queued, which is exactly the requeue-on-loss semantics)
//   - "complete": one cell finished (full CellResult, document-global
//     index) — re-executed duplicates are never logged twice
//   - "cancel":   a job reached the canceled terminal state
//   - "finish":   a job reached done or failed
//
// Every record reaches the file when it is appended, so a crash of the
// coordinator process loses none. submit, cancel and finish records wait
// for their fsync; lease and complete records do not, and a report
// stream syncs once at its end, before its ack. A crash of the machine
// can therefore lose only unsynced lease records, which replay ignores,
// and complete records of reports not yet acknowledged, whose cells are
// recomputed with identical bytes: every acknowledged report is durable.
//
// Replay folds the record sequence into per-job state: jobs with a
// terminal record are dropped (their documents are not durable — only
// queue state is), everything else is a recoverable job carrying the
// cell results already paid for. A torn final record — the crash
// happened mid-append — is detected by length/EOF mismatch or invalid
// JSON and the file is truncated back to the last whole record, so the
// log is always appendable after recovery.

// Record type tags.
const (
	recSubmit   = "submit"
	recLease    = "lease"
	recComplete = "complete"
	recCancel   = "cancel"
	recFinish   = "finish"
)

// Record is one job-log entry. Type selects which optional fields are
// meaningful.
type Record struct {
	Type string `json:"type"`
	Job  string `json:"job"`
	// Request is the normalized sweep request (submit records).
	Request *serve.SweepRequest `json:"request,omitempty"`
	// Cell is one finished cell with its document-global index
	// (complete records).
	Cell *sweep.CellResult `json:"cell,omitempty"`
	// State is the terminal state (finish records: done | failed).
	State string `json:"state,omitempty"`
	// Lease, Worker and Cells describe a granted lease (lease records):
	// the lease id, the worker it went to, and the document-global cell
	// indices it covers.
	Lease  string `json:"lease,omitempty"`
	Worker string `json:"worker,omitempty"`
	Cells  []int  `json:"cells,omitempty"`
}

// JobLog is the append-only record file with group commit. A record is
// written to the file when it is appended; fsync is separate and shared.
// Append returns once an fsync that started after its write has
// finished, and callers that wait at the same time share one: the first
// becomes the leader and syncs everything written so far, the others
// wait on cond and return if that covered their record. The coordinator
// only writes lease and complete records (write) and syncs once per
// report stream (sync). The first write or sync error is sticky: every
// later call returns it.
type JobLog struct {
	mu      sync.Mutex
	cond    *sync.Cond // broadcast when an fsync ends or the file closes
	f       *os.File
	err     error  // first write or sync error
	written uint64 // records written
	synced  uint64 // records covered by a finished fsync
	syncing bool   // a leader's fsync is in flight (l.mu released)
	syncs   int64  // fsyncs issued
}

var errLogClosed = errors.New("cluster: job log closed")

// OpenJobLog opens (creating if absent) the log at path, replays the
// existing records, and truncates any torn final record so subsequent
// appends start on a whole-record boundary. The returned records are the
// durable prefix in append order.
func OpenJobLog(path string) (*JobLog, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: opening job log: %w", err)
	}
	records, good, err := readRecords(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	// Anything past the last whole record is a torn tail from a crash
	// mid-append: drop it so the next append produces a parseable file.
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("cluster: truncating torn job-log tail: %w", err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("cluster: seeking job log: %w", err)
	}
	l := &JobLog{f: f}
	l.cond = sync.NewCond(&l.mu)
	return l, records, nil
}

// readRecords parses length-prefixed records from the start of f,
// returning the whole records and the offset just past the last one.
// A short length prefix, a short payload, or an unparseable payload all
// terminate the scan without error — they are the torn tail.
func readRecords(f *os.File) ([]Record, int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, fmt.Errorf("cluster: seeking job log: %w", err)
	}
	var (
		records []Record
		good    int64
		lenBuf  [4]byte
	)
	for {
		if _, err := io.ReadFull(f, lenBuf[:]); err != nil {
			break // clean EOF or torn length prefix
		}
		n := binary.LittleEndian.Uint32(lenBuf[:])
		if n == 0 || n > 64<<20 {
			break // corrupt length: treat as torn tail
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(f, payload); err != nil {
			break // torn payload
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			break // torn/corrupt record
		}
		records = append(records, rec)
		good += 4 + int64(n)
	}
	return records, good, nil
}

// Append writes one record and returns once it is on disk: an fsync
// that started after the write has finished. Concurrent Appends share
// fsyncs.
func (l *JobLog) Append(rec Record) error {
	seq, err := l.write(rec)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked(seq)
}

// write appends one record (length prefix + JSON payload) to the file
// without waiting for an fsync, and returns its sequence number.
func (l *JobLog) write(rec Record) (uint64, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return 0, fmt.Errorf("cluster: encoding job-log record: %w", err)
	}
	buf := make([]byte, 4+len(payload))
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	copy(buf[4:], payload)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	if l.f == nil {
		return 0, errLogClosed
	}
	if _, err := l.f.Write(buf); err != nil {
		l.err = fmt.Errorf("cluster: appending job-log record: %w", err)
		return 0, l.err
	}
	l.written++
	return l.written, nil
}

// sync returns once every record written so far is on disk.
func (l *JobLog) sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil && l.err == nil {
		return errLogClosed
	}
	return l.syncLocked(l.written)
}

// syncLocked returns once record seq is covered by a finished fsync,
// leading one if none is in flight. Callers hold l.mu; the leader
// releases it for the fsync itself, so writes continue meanwhile.
func (l *JobLog) syncLocked(seq uint64) error {
	for {
		switch {
		case l.err != nil:
			return l.err
		case l.synced >= seq:
			return nil
		case l.f == nil:
			return errLogClosed
		case l.syncing:
			l.cond.Wait()
			continue
		}
		l.syncing = true
		target, f := l.written, l.f
		l.mu.Unlock()
		err := f.Sync()
		l.mu.Lock()
		l.syncing = false
		l.syncs++
		if err != nil {
			l.err = fmt.Errorf("cluster: syncing job log: %w", err)
		} else {
			l.synced = max(l.synced, target)
		}
		l.cond.Broadcast()
	}
}

// Close syncs what is written, closes the file and returns the first
// error the log met. Every later call fails.
func (l *JobLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return l.err
	}
	err := l.syncLocked(l.written)
	if l.f == nil { // a concurrent Close finished while this one waited
		return l.err
	}
	if cerr := l.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("cluster: closing job log: %w", cerr)
		l.err = err
	}
	l.f = nil
	l.cond.Broadcast()
	return err
}

// RecoveredJob is one unfinished job reconstructed from the log: its
// normalized request and the results of every cell that completed before
// the crash, keyed by document-global index.
type RecoveredJob struct {
	// OldID is the job's id in the previous coordinator incarnation
	// (ids are reassigned on resubmission).
	OldID   string
	Request serve.SweepRequest
	Results map[int]sweep.CellResult
}

// ReplayQueueState folds a record sequence into the recoverable queue
// state: the unfinished jobs in submission order, each with its
// already-complete cells. Jobs with a cancel or finish record are
// dropped; lease records are ignored (a lease does not survive its
// coordinator, so leased-but-incomplete cells replay as queued).
func ReplayQueueState(records []Record) []*RecoveredJob {
	byID := make(map[string]*RecoveredJob)
	var order []string
	for _, rec := range records {
		switch rec.Type {
		case recSubmit:
			if rec.Request == nil || rec.Job == "" {
				continue
			}
			if _, ok := byID[rec.Job]; ok {
				continue // duplicate submit record: keep the first
			}
			byID[rec.Job] = &RecoveredJob{
				OldID:   rec.Job,
				Request: *rec.Request,
				Results: make(map[int]sweep.CellResult),
			}
			order = append(order, rec.Job)
		case recComplete:
			if job, ok := byID[rec.Job]; ok && rec.Cell != nil {
				job.Results[rec.Cell.Index] = *rec.Cell
			}
		case recCancel, recFinish:
			delete(byID, rec.Job)
		}
	}
	jobs := make([]*RecoveredJob, 0, len(byID))
	for _, id := range order {
		if job, ok := byID[id]; ok {
			jobs = append(jobs, job)
		}
	}
	return jobs
}
