package cluster

import (
	"bufio"
	"encoding/json"
	"errors"
	"net/http"

	"asyncsgd/internal/serve"
	"asyncsgd/internal/sweep"
)

// maxReportLine bounds one NDJSON CellResult line in a report stream.
const maxReportLine = 4 << 20

func writeClusterJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func decodeClusterJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	// Report streams are line-bounded instead (maxReportLine).
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, serve.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// gone answers 410: the worker or lease identity is dead and the caller
// should abandon the batch (and, for a worker identity, re-register).
func gone(w http.ResponseWriter, err error) {
	http.Error(w, err.Error(), http.StatusGone)
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !decodeClusterJSON(w, r, &req) {
		return
	}
	writeClusterJSON(w, http.StatusOK, c.register(req))
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decodeClusterJSON(w, r, &req) {
		return
	}
	resp, err := c.leaseWait(r.Context(), req.WorkerID)
	if err != nil {
		gone(w, err)
		return
	}
	if resp == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeClusterJSON(w, http.StatusOK, resp)
}

// handleReport ingests a worker's NDJSON CellResult stream for one
// lease. Results are applied as lines arrive — a stream severed by a
// worker crash keeps everything applied before the cut (the cells it
// never reported requeue when the lease expires). The stream's journal
// records are synced once, at its end, before the ack.
func (c *Coordinator) handleReport(w http.ResponseWriter, r *http.Request) {
	leaseID := r.PathValue("lease")
	var ack ReportAck
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 64<<10), maxReportLine)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var res sweep.CellResult
		if err := json.Unmarshal(line, &res); err != nil {
			http.Error(w, "bad result line: "+err.Error(), http.StatusBadRequest)
			return
		}
		applied, err := c.applyResult(leaseID, res)
		if errors.Is(err, ErrLeaseRevoked) {
			gone(w, err)
			return
		}
		if applied {
			ack.Accepted++
		} else {
			ack.Duplicates++
		}
	}
	if err := sc.Err(); err != nil {
		// Severed mid-stream: the applied prefix stands; the rest of the
		// lease requeues on expiry.
		http.Error(w, "report stream: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := c.syncLog(); err != nil {
		http.Error(w, "report stream: "+err.Error(), http.StatusInternalServerError)
		return
	}
	writeClusterJSON(w, http.StatusOK, ack)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decodeClusterJSON(w, r, &req) {
		return
	}
	if err := c.heartbeat(req); err != nil {
		gone(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeClusterJSON(w, http.StatusOK, c.Status())
}
