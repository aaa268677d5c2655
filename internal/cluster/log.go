package cluster

import (
	"encoding/binary"
	"encoding/json"
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

// JobLog is the append-only record file. Appends are serialized and
// synced to disk before returning, so every acknowledged record survives
// a crash.
type JobLog struct {
	mu sync.Mutex
	f  *os.File
}

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
	return &JobLog{f: f}, records, nil
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

// Append writes one record durably (length prefix + JSON payload +
// fsync).
func (l *JobLog) Append(rec Record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("cluster: encoding job-log record: %w", err)
	}
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(payload)))
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("cluster: job log closed")
	}
	if _, err := l.f.Write(lenBuf[:]); err != nil {
		return fmt.Errorf("cluster: appending job-log record: %w", err)
	}
	if _, err := l.f.Write(payload); err != nil {
		return fmt.Errorf("cluster: appending job-log record: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("cluster: syncing job log: %w", err)
	}
	return nil
}

// Close closes the underlying file. Further appends fail.
func (l *JobLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
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
