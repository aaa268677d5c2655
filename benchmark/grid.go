package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"asyncsgd/internal/grad"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/serve"
	"asyncsgd/internal/sweep"
	"asyncsgd/internal/vec"
)

// gridInst is the grid_cli workload: op = the default 108-cell machine
// grid through serve.RunRequest and Report.Encode, which is what
// `asgdbench sweep -json` executes.
type gridInst struct {
	seed uint64
	seq  atomic.Int64
	tr   *tracer
	docs keptDocs
}

// keptDoc is one op's request and document, kept for the byte-identity
// check that runs outside the timed window.
type keptDoc struct {
	req serve.SweepRequest
	doc []byte
}

// keptDocs holds the documents the identity check covers: the first op's,
// every 16th and — by always remembering the latest — the last.
type keptDocs struct {
	mu   sync.Mutex
	kept []keptDoc
	last *keptDoc
}

func setupGridCLI(e *env, seed uint64) (instance, error) {
	g := &gridInst{seed: seed, tr: e.tr}
	return g, warmUp(g)
}

func (g *gridInst) clients() int { return 1 }
func (g *gridInst) close()       {}

func (g *gridInst) op(int) sample {
	k := int(g.seq.Add(1))
	seed := mixSeed(g.seed, 0, k)
	req := serve.SweepRequest{Seed: &seed}
	opID := g.tr.newOp()
	root := g.tr.start("op.grid_cli", 0, opID)

	var (
		events int
		buf    bytes.Buffer
		rep    *serve.Report
		err    error
	)
	count := func(sweep.CellResult) { events++ } // RunRequest serializes onResult calls
	t0 := time.Now()
	if g.tr == nil {
		rep, err = serve.RunRequest(context.Background(), req, count)
	} else {
		rep, err = tracedRunRequest(context.Background(), g.tr, root.id(), opID, req, count)
	}
	if err == nil {
		enc := g.tr.start("serve.encode_doc", root.id(), opID)
		err = rep.Encode(&buf)
		enc.end()
	}
	s := sample{wallNS: int64(time.Since(t0))}
	root.end()

	if err != nil {
		s.err = fmt.Errorf("grid_cli: %w", err)
		return s
	}
	s.cells, s.updates, s.err = checkReport(rep, events, defaultGridCells)
	if s.err == nil {
		g.docs.keep(k, keptDoc{req: req, doc: buf.Bytes()})
	}
	return s
}

func (g *gridInst) finish() []error { return g.docs.verify() }

const (
	defaultGridCells = 108 // 4 taus × 3 worker counts × 3 sparsities × 3 replicates
	grid24Cells      = 24  // 4 taus × 2 worker counts × 1 sparsity × 3 replicates
)

// checkReport is the per-op output check of the grid and job workloads:
// the expected number of cell events, the same number of cells in the
// document, none failed. It returns the verified cells and the SGD
// iterations they ran.
func checkReport(rep *serve.Report, cellEvents, want int) (cells int, updates int64, err error) {
	switch {
	case rep.Sweep == nil:
		return 0, 0, fmt.Errorf("document has no sweep record")
	case cellEvents != want:
		return 0, 0, fmt.Errorf("%d cell events, want %d", cellEvents, want)
	case len(rep.Sweep.Results) != want:
		return 0, 0, fmt.Errorf("%d cells in the document, want %d", len(rep.Sweep.Results), want)
	case rep.FailedCells() != 0:
		return 0, 0, fmt.Errorf("%d failed cells", rep.FailedCells())
	}
	for i := range rep.Sweep.Results {
		updates += int64(rep.Sweep.Results[i].Iters)
	}
	return want, updates, nil
}

// keep retains op k's document when it is one the check covers.
func (kd *keptDocs) keep(k int, d keptDoc) {
	kd.mu.Lock()
	defer kd.mu.Unlock()
	if k == 1 || k%16 == 0 {
		kd.kept = append(kd.kept, d)
		kd.last = nil
		return
	}
	kd.last = &d
}

// verify is the CLI = serve = cluster byte-identity contract: each kept
// document, with the two timing fields zeroed, must equal serve.RunRequest
// of the same request treated the same way.
func (kd *keptDocs) verify() []error {
	kd.mu.Lock()
	docs := append([]keptDoc(nil), kd.kept...)
	if kd.last != nil {
		docs = append(docs, *kd.last)
	}
	kd.mu.Unlock()
	var errs []error
	for _, d := range docs {
		if err := verifyDoc(d); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

func verifyDoc(d keptDoc) error {
	var got serve.Report
	if err := json.Unmarshal(d.doc, &got); err != nil {
		return fmt.Errorf("identity check: decoding document: %w", err)
	}
	want, err := serve.RunRequest(context.Background(), d.req, nil)
	if err != nil {
		return fmt.Errorf("identity check: re-running request: %w", err)
	}
	a, err := timelessBytes(&got)
	if err != nil {
		return err
	}
	b, err := timelessBytes(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("identity check: document of seed %d differs from serve.RunRequest beyond the timing fields", *d.req.Seed)
	}
	return nil
}

// timelessBytes encodes rep with seconds and updates_per_sec — the two
// documented wall-clock fields — zeroed.
func timelessBytes(rep *serve.Report) ([]byte, error) {
	if rep.Sweep != nil {
		rep.Sweep.Seconds = 0
		for i := range rep.Sweep.Results {
			rep.Sweep.Results[i].Seconds = 0
			rep.Sweep.Results[i].UpdatesPerSec = 0
		}
	}
	var buf bytes.Buffer
	if err := rep.Encode(&buf); err != nil {
		return nil, fmt.Errorf("identity check: encoding: %w", err)
	}
	return buf.Bytes(), nil
}

// --- traced execution of a request ---

// cellTap follows one sweep cell from outside through the only seam the
// engine offers — the oracle it builds and then calls: Make's bounds are
// the oracle build, the first Optimum call after it is where the engine
// turns from running the cell to computing its quality metrics, and the
// last Value call ends those.
type cellTap struct {
	oracleTap
	makeStart, makeEnd int64
	valueEnd           atomic.Int64
}

// cellOracle adds the Value mark to the decorated oracle.
type cellOracle struct {
	grad.SparseOracle
	tap *cellTap
}

func (o *cellOracle) Value(x vec.Dense) float64 {
	v := o.SparseOracle.Value(x)
	o.tap.valueEnd.Store(o.tap.tr.now())
	return v
}

// tracedRunRequest is serve.RunRequest taken apart at its public seams —
// Normalized, Specs, sweep.RunContext, AssembleReport — with a span
// around each and the oracle factory of every cell decorated. It runs
// the same cells with the same seeds (the identity check holds its
// documents to serve.RunRequest's bytes).
func tracedRunRequest(ctx context.Context, tr *tracer, parent, op int, req serve.SweepRequest,
	onResult func(sweep.CellResult)) (*serve.Report, error) {
	norm, err := req.Normalized()
	if err != nil {
		return nil, err
	}
	sb := tr.start("sweep.spec_build", parent, op)
	specs, err := norm.Specs()
	sb.end()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var (
		all   []sweep.CellResult
		names []string
	)
	for _, spec := range specs {
		names = append(names, spec.Name)
		offset := len(all)
		var (
			mu   sync.Mutex
			taps []*cellTap
		)
		oracles := append([]sweep.Oracle(nil), spec.Oracles...)
		for i := range oracles {
			mk := oracles[i].Make
			oracles[i].Make = func(d int, r *rng.Rand) (grad.Oracle, vec.Dense, error) {
				tap := &cellTap{oracleTap: oracleTap{tr: tr}}
				tap.makeStart = tr.now()
				o, x0, err := mk(d, r)
				tap.makeEnd = tr.now()
				if err != nil {
					return nil, nil, err
				}
				so, ok := grad.AsSparse(tap.wrap(o, 0))
				if !ok {
					return nil, nil, fmt.Errorf("traced sweep: oracle %T is not sparse", o)
				}
				mu.Lock()
				taps = append(taps, tap)
				mu.Unlock()
				return &cellOracle{SparseOracle: so, tap: tap}, x0, nil
			}
		}
		spec.Oracles = oracles
		if onResult != nil {
			spec.OnResult = func(r sweep.CellResult) {
				r.Index += offset
				onResult(r)
			}
		}
		run := tr.start("sweep.run", parent, op)
		results, err := sweep.RunContext(ctx, spec)
		run.end()
		if err != nil {
			return nil, err
		}
		for _, tap := range taps {
			emitCell(tr, tap, run.id(), op)
		}
		for i := range results {
			results[i].Index += offset
		}
		all = append(all, results...)
	}
	asm := tr.start("serve.assemble_report", parent, op)
	rep := serve.AssembleReport(norm, names, all, time.Since(start))
	asm.end()
	return rep, nil
}

// emitCell records a cell's span and its three phases.
func emitCell(tr *tracer, tap *cellTap, parent, op int) {
	fillStart, fillEnd := tap.optimumAt.Load(), tap.valueEnd.Load()
	if fillStart == 0 || fillEnd < fillStart {
		return // the cell failed before its quality metrics
	}
	cell := span{ID: int(tr.nextID.Add(1)), Parent: parent, Op: op, Name: "sweep.cell", Start: tap.makeStart, End: fillEnd}
	tr.add(cell)
	tr.add(span{Parent: cell.ID, Op: op, Name: "sweep.cell_oracle_build", Start: tap.makeStart, End: tap.makeEnd})
	tr.add(span{Parent: cell.ID, Op: op, Name: "sweep.cell_run", Start: tap.makeEnd, End: fillStart})
	tr.add(span{Parent: cell.ID, Op: op, Name: "sweep.cell_fill", Start: fillStart, End: fillEnd})
}
