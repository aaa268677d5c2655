package shm

import "iter"

// Func is the Program adapter for ordinary Go functions. The body runs as
// a coroutine (iter.Pull) and performs shared-memory operations through
// the methods of T: each call yields the operation to the adapter's
// NextInto, which writes it into the pending slot, and resumes with its
// result once the scheduler has granted the step. When the machine stops
// early (MaxSteps, policy halt, error), Machine.Run calls Stop, which
// unwinds a body still waiting on an operation. A panic of the body's own
// surfaces from Machine.Run.
//
// Func programs are convenient for tests, examples and baselines. Hot-path
// workloads (the SGD iteration loop in internal/core) implement NextInto
// directly as a state machine to avoid a coroutine switch per step.
func Func(body func(*T)) Program {
	return &funcProgram{body: body}
}

// T is the operation handle passed to a Func body. Its methods return once
// the machine has scheduled the operation, with its result.
type T struct {
	yield func(Request) bool
	res   Result // the granted operation's result, set before resuming
	tag   Tag
}

// killSentinel unwinds a body whose program was stopped: after stop,
// yield keeps returning false, so a looping body would never return.
type killSentinel struct{}

func (t *T) do(req Request) Result {
	if req.Tag == (Tag{}) {
		req.Tag = t.tag
	}
	if !t.yield(req) {
		panic(killSentinel{})
	}
	return t.res
}

// Read atomically reads register addr.
func (t *T) Read(addr int) float64 {
	return t.do(Request{Kind: OpRead, Addr: addr}).Val
}

// Write atomically writes v to register addr and returns the prior value.
func (t *T) Write(addr int, v float64) float64 {
	return t.do(Request{Kind: OpWrite, Addr: addr, Val: v}).Val
}

// FAA atomically adds delta to register addr and returns the prior value
// (the paper's fetch&add primitive).
func (t *T) FAA(addr int, delta float64) float64 {
	return t.do(Request{Kind: OpFAA, Addr: addr, Val: delta}).Val
}

// CAS atomically compares register addr with exp and, on match, stores v.
// It returns the prior value and whether the swap happened.
func (t *T) CAS(addr int, exp, v float64) (prior float64, swapped bool) {
	res := t.do(Request{Kind: OpCAS, Addr: addr, Exp: exp, Val: v})
	return res.Val, res.OK
}

// Annotate sets the tag attached to subsequent operations (visible to the
// scheduling policy). Pass the zero Tag to clear.
func (t *T) Annotate(tag Tag) { t.tag = tag }

type funcProgram struct {
	body func(*T)
	t    T
	next func() (Request, bool)
	stop func()
}

var _ Program = (*funcProgram)(nil)
var _ Stopper = (*funcProgram)(nil)

// NextInto implements Program: it resumes the body with prev and stores
// the body's next operation into *req.
func (p *funcProgram) NextInto(prev Result, req *Request) bool {
	if p.next == nil {
		p.next, p.stop = iter.Pull(p.run)
	}
	p.t.res = prev
	r, ok := p.next()
	if !ok {
		return true
	}
	*req = r
	return false
}

// run is the body as a sequence of operations. The sentinel is recovered
// here, inside the sequence: one that escaped would be re-raised by stop.
func (p *funcProgram) run(yield func(Request) bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killSentinel); !ok {
				panic(r)
			}
		}
	}()
	p.t.yield = yield
	p.body(&p.t)
}

// Stop unwinds the body if it is still waiting on an operation.
func (p *funcProgram) Stop() {
	if p.stop != nil {
		p.stop()
	}
}
