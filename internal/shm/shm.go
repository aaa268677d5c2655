// Package shm implements the asynchronous shared-memory model of the
// paper (Section 2): n threads communicate through atomic registers
// supporting read, write, fetch&add and compare&swap; the interleaving of
// their shared-memory steps is chosen by an adversarial scheduler; time is
// measured in scheduled shared-memory steps; the adversary may crash up to
// n−1 threads; memory is sequentially consistent.
//
// The machine is a deterministic discrete-event simulator. Each thread is a
// Program — a resumable coroutine that, when granted a step, consumes the
// result of its previous operation and issues the next one. The scheduling
// Policy sees every pending operation including its operands and tags
// (hence the threads' local coin flips, making it the paper's *strong
// adaptive* adversary) and full memory contents, and picks which pending
// operation executes next. Local computation between shared-memory
// operations is free, exactly as in the model.
//
// For ergonomic thread bodies, Func adapts an ordinary function using
// blocking operation calls into a Program (see funcprog.go).
package shm

import (
	"errors"
	"fmt"
)

// OpKind enumerates the atomic register operations of the model.
type OpKind uint8

// Supported atomic operations. The paper's Algorithm 1 needs only OpRead
// and OpFAA; OpWrite and OpCAS are provided for baselines and tests.
const (
	OpRead OpKind = iota + 1
	OpWrite
	OpFAA
	OpCAS
)

// String returns the conventional name of the operation.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpFAA:
		return "fetch&add"
	case OpCAS:
		return "compare&swap"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Role classifies a tagged operation within the SGD annotation schema the
// thread programs and scheduling policies share. The vocabulary is defined
// here — rather than in internal/contention, which interprets it — so that
// Request can embed the annotation as a concrete struct: with Tag typed
// `any`, every issued operation boxed a 40-byte struct into an interface,
// one heap allocation per simulated step on the machine's hot path.
// The zero Role marks an untagged operation.
type Role uint8

// Operation roles. See internal/contention for the full semantics; the
// names are re-exported there and policies normally refer to the
// contention aliases.
const (
	RoleNone    Role = iota // untagged operation
	RoleCounter             // iteration-claiming fetch&add on the shared counter
	RoleRead                // read of one model coordinate (view assembly)
	RoleUpdate              // fetch&add applying one gradient coordinate
	RoleProbe               // auxiliary counter read (staleness probe)
	RoleGate                // gated-discipline synchronization op
)

// HoldToEnd is a Decision.Hold that is no operation role: it keeps
// granting Thread whatever its pending requests' roles and Last tags,
// until the thread terminates or MaxSteps is reached. It suits a policy
// that would pick the same thread on every remaining step, as RoundRobin
// does once a single thread is live.
const HoldToEnd Role = 255

// String returns the role name.
func (r Role) String() string {
	switch r {
	case RoleNone:
		return "none"
	case RoleCounter:
		return "counter"
	case RoleRead:
		return "read"
	case RoleUpdate:
		return "update"
	case RoleProbe:
		return "probe"
	case RoleGate:
		return "gate"
	default:
		return fmt.Sprintf("Role(%d)", uint8(r))
	}
}

// Tag annotates one shared-memory operation with its place in the SGD
// execution. Thread is the issuing thread; Iter is the thread-local
// iteration number (0-based); Coord is the model coordinate for reads and
// updates (and carries the done-counter threshold for gate operations);
// First/Last mark the first and last model update of the iteration (First
// defines the paper's total order on iterations). The zero Tag (Role ==
// RoleNone) means "untagged".
type Tag struct {
	Thread int
	Iter   int
	Role   Role
	Coord  int
	First  bool
	Last   bool
}

// Request is one pending shared-memory operation issued by a thread.
type Request struct {
	Kind OpKind
	Addr int     // register index
	Val  float64 // write value / fetch&add delta / CAS new value
	Exp  float64 // CAS expected value
	Tag  Tag     // annotation, visible to the scheduling policy (zero = none)
}

// Result is the outcome of an executed operation, delivered to the issuing
// thread at its next step grant.
type Result struct {
	Valid bool    // false only for the synthetic "result" before a thread's first op
	Val   float64 // read value; prior value for write/FAA/CAS
	OK    bool    // CAS success indicator
	Time  int     // machine time (step index, 1-based) at which the op executed
}

// Step records one executed operation for tracing and analysis.
type Step struct {
	Time   int // 1-based step index
	Thread int
	Req    Request
	Res    Result
}

// Program is a resumable thread. NextInto receives the Result of the
// thread's previously executed operation (Valid=false on the first call)
// and writes the next operation to issue into *req, the thread's pending
// slot in the machine; it returns done=true when the thread terminates, and
// the slot's contents are then ignored. *req still holds the previously
// issued request on entry (the zero Request on the first call), so an
// implementation may update only the fields that change and must overwrite
// every field it relies on. Implementations must be deterministic given
// their inputs; any randomness must come from a seeded generator owned by
// the program. Func adapts an ordinary blocking function into a Program.
type Program interface {
	NextInto(prev Result, req *Request) (done bool)
}

// Stopper is implemented by Programs that own background resources (the
// Func adapter's goroutine). The machine calls Stop on every program that
// implements it when Run returns.
type Stopper interface {
	Stop()
}

// View is the scheduler's complete observation of the machine: the current
// time, every pending request with operands and tags, thread liveness, and
// the full memory contents. This is the strong adaptive adversary of the
// paper: nothing is hidden from it.
type View struct {
	m *Machine
}

// Time returns the number of shared-memory steps executed so far.
func (v *View) Time() int { return v.m.steps }

// NumThreads returns the number of threads in the machine.
func (v *View) NumThreads() int { return len(v.m.progs) }

// Pending returns thread i's pending request. ok is false (and the
// pointer nil) if the thread has terminated or crashed. The pointer
// addresses the machine's pending slot: it is read-only, and valid only
// until the policy's Next call returns, so a caller that keeps a request
// must copy it.
func (v *View) Pending(i int) (*Request, bool) {
	if v.m.done[i] || v.m.crashed[i] {
		return nil, false
	}
	return &v.m.pending[i], true
}

// Live reports whether thread i is schedulable (not done, not crashed).
func (v *View) Live(i int) bool { return !v.m.done[i] && !v.m.crashed[i] }

// LiveCount returns the number of schedulable threads.
func (v *View) LiveCount() int { return v.m.live }

// Load lets the adversary inspect register addr.
func (v *View) Load(addr int) float64 { return v.m.mem[addr] }

// Decision is a Policy's scheduling choice: execute thread Thread's pending
// operation, after crashing the listed threads. Crashing all live threads
// (leaving Thread invalid) halts the run; otherwise Thread must identify a
// live, pending thread.
//
// A non-zero Hold commits the policy to a run of steps: after Thread's
// operation executes, the machine keeps granting Thread, without calling
// the policy, while Thread is live, its new pending request has
// Tag.Role == Hold and is not tagged Last, and MaxSteps is not reached.
// Hold == HoldToEnd drops the role and Last conditions.
// A policy may hold only when every per-step call it skips would have
// returned the same thread with no crash and no change to its own state,
// so a held run replays the per-step schedule exactly. A wrapper that
// forwards an inner policy's decision clears Hold unless nothing the
// wrapper does can differ during the run (a crash falling due, a quantum
// running out, a step it records).
type Decision struct {
	Thread int
	Crash  []int
	Hold   Role
}

// Policy chooses the next step. Implementations receive a View valid only
// for the duration of the call.
type Policy interface {
	Next(v *View) Decision
}

// Config parameterizes a Machine.
type Config struct {
	MemSize  int       // number of registers, all initially 0
	MaxSteps int       // stop after this many steps (0 = unlimited)
	Trace    bool      // record the full step log (memory-heavy)
	InitMem  []float64 // optional initial register contents

	// CrashFlagBase, when positive, designates a failure-detector region:
	// the instant the adversary crashes thread i, the machine writes
	// mem[CrashFlagBase+i] = 1 (bounds permitting). Survivor programs can
	// read these registers to learn which peers are dead — the perfect
	// failure detector the crash-recovery protocols in internal/core build
	// on. Zero (the default) disables the region.
	CrashFlagBase int
}

// RunStats summarizes a completed run.
type RunStats struct {
	Steps     int
	Completed int // threads that terminated normally
	Crashed   int // threads crashed by the adversary
	Stalled   int // live threads still pending when the run stopped (MaxSteps)
	Decisions int // policy calls; below Steps when decisions hold (Decision.Hold)
}

// Machine is one simulated shared-memory execution. Create with New, drive
// with Run. A Machine is single-use and not safe for concurrent use.
type Machine struct {
	cfg        Config
	policy     Policy
	progs      []Program
	mem        []float64
	pending    []Request
	done       []bool
	crashed    []bool
	steps      int
	decisions  int // policy calls
	live       int // schedulable threads, maintained incrementally
	numCrashed int
	trace      []Step
	ran        bool
}

// Validation errors returned by Run.
var (
	ErrBadThread   = errors.New("shm: policy chose an unschedulable thread")
	ErrBadAddress  = errors.New("shm: operation address out of range")
	ErrNoThreads   = errors.New("shm: machine has no programs")
	ErrAlreadyRan  = errors.New("shm: machine already ran")
	ErrTooManyDead = errors.New("shm: adversary may crash at most n-1 threads")
)

// New builds a machine over cfg with the given policy and thread programs.
func New(cfg Config, policy Policy, progs ...Program) (*Machine, error) {
	if len(progs) == 0 {
		return nil, ErrNoThreads
	}
	if cfg.MemSize <= 0 && len(cfg.InitMem) == 0 {
		return nil, errors.New("shm: MemSize must be positive")
	}
	mem := make([]float64, cfg.MemSize)
	if len(cfg.InitMem) > 0 {
		if cfg.MemSize == 0 {
			mem = make([]float64, len(cfg.InitMem))
		} else if len(cfg.InitMem) > cfg.MemSize {
			return nil, errors.New("shm: InitMem larger than MemSize")
		}
		copy(mem, cfg.InitMem)
	}
	return &Machine{
		cfg:     cfg,
		policy:  policy,
		progs:   progs,
		mem:     mem,
		pending: make([]Request, len(progs)),
		done:    make([]bool, len(progs)),
		crashed: make([]bool, len(progs)),
	}, nil
}

// Mem returns the machine's register file. After Run it holds the final
// memory contents. The returned slice aliases machine state; treat it as
// read-only.
func (m *Machine) Mem() []float64 { return m.mem }

// Trace returns the recorded step log (empty unless Config.Trace).
func (m *Machine) Trace() []Step { return m.trace }

// Run executes the machine until every live thread terminates, the policy
// crashes all remaining threads, or MaxSteps is reached. It releases any
// Func-adapted goroutines before returning.
//
// The grant→execute→record loop is flattened into a single function so the
// per-step constant stays small: the machine maintains its live count
// incrementally (no O(n) scan per step), skips crash processing when the
// decision carries none, keeps executing a held decision's thread without
// calling the policy (Decision.Hold), copies a Step record only when
// tracing, and allocates nothing per step — the concrete Request.Tag
// means issuing an annotated operation is a plain struct write.
//
//asgd:hotpath
func (m *Machine) Run() (RunStats, error) {
	if m.ran {
		return RunStats{}, ErrAlreadyRan
	}
	m.ran = true
	//asgdvet:allow hotalloc(one closure per run, not per step; the per-step loop below is allocation-free)
	defer func() {
		for _, p := range m.progs {
			if s, ok := p.(Stopper); ok {
				s.Stop()
			}
		}
	}()

	// Prime every thread with its first request.
	for i, p := range m.progs {
		if p.NextInto(Result{}, &m.pending[i]) {
			m.done[i] = true
		}
	}
	m.live = 0
	for i := range m.progs {
		if !m.done[i] && !m.crashed[i] {
			m.live++
		}
	}

	var (
		view     = &View{m: m}
		policy   = m.policy
		mem      = m.mem
		maxSteps = m.cfg.MaxSteps
		tracing  = m.cfg.Trace
	)
	for m.live > 0 && (maxSteps == 0 || m.steps < maxSteps) {
		d := policy.Next(view)
		m.decisions++
		if len(d.Crash) > 0 {
			if err := m.applyCrashes(d.Crash); err != nil {
				return m.stats(), err
			}
			if m.live == 0 {
				break
			}
		}
		tid := d.Thread
		if tid < 0 || tid >= len(m.progs) || m.done[tid] || m.crashed[tid] {
			return m.stats(), fmt.Errorf("thread %d at step %d: %w",
				tid, m.steps, ErrBadThread)
		}

		// Execute the granted operation in place, and keep executing
		// tid's next ones while the decision holds.
		req := &m.pending[tid]
		prog := m.progs[tid]
		for {
			if req.Addr < 0 || req.Addr >= len(mem) {
				return m.stats(), fmt.Errorf("thread %d op %s addr %d (mem %d): %w",
					tid, req.Kind, req.Addr, len(mem), ErrBadAddress)
			}
			m.steps++
			res := Result{Valid: true, Time: m.steps}
			old := mem[req.Addr]
			switch req.Kind {
			case OpRead:
				res.Val = old
			case OpWrite:
				mem[req.Addr] = req.Val
				res.Val = old
			case OpFAA:
				mem[req.Addr] = old + req.Val
				res.Val = old
			case OpCAS:
				res.Val = old
				if old == req.Exp {
					mem[req.Addr] = req.Val
					res.OK = true
				}
			default:
				return m.stats(), fmt.Errorf("thread %d: unknown op kind %d", tid, req.Kind)
			}
			if tracing {
				m.trace = append(m.trace, Step{Time: m.steps, Thread: tid, Req: *req, Res: res})
			}
			if prog.NextInto(res, req) {
				m.done[tid] = true
				m.live--
				break
			}
			if d.Hold != HoldToEnd && (d.Hold == RoleNone || req.Tag.Role != d.Hold || req.Tag.Last) ||
				(maxSteps != 0 && m.steps >= maxSteps) {
				break
			}
		}
	}
	return m.stats(), nil
}

func (m *Machine) applyCrashes(crash []int) error {
	for _, i := range crash {
		if i < 0 || i >= len(m.progs) || m.done[i] || m.crashed[i] {
			continue
		}
		// The model allows crashing at most n-1 threads overall; enforce
		// it so adversaries cannot trivially halt progress forever.
		if m.numCrashed >= len(m.progs)-1 {
			return ErrTooManyDead
		}
		m.crashed[i] = true
		m.numCrashed++
		m.live--
		if base := m.cfg.CrashFlagBase; base > 0 && base+i < len(m.mem) {
			m.mem[base+i] = 1
		}
	}
	return nil
}

func (m *Machine) stats() RunStats {
	s := RunStats{Steps: m.steps, Decisions: m.decisions}
	for i := range m.progs {
		switch {
		case m.done[i]:
			s.Completed++
		case m.crashed[i]:
			s.Crashed++
		default:
			s.Stalled++
		}
	}
	return s
}
