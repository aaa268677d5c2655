package shm

// Func is the Program adapter for ordinary Go functions. The body runs on
// its own goroutine and performs shared-memory operations through the
// blocking methods of T; each call hands control back to the machine until
// the scheduler grants the step, and the adapter's NextInto writes the
// body's next operation into the pending slot. The adapter guarantees the
// goroutine is released when the machine stops early (MaxSteps, policy
// halt, error): Machine.Run calls Stop, which unwinds the body via a
// recovered panic.
//
// Func programs are convenient for tests, examples and baselines. Hot-path
// workloads (the SGD iteration loop in internal/core) implement NextInto
// directly as a state machine to avoid per-step channel handoffs.
func Func(body func(*T)) Program {
	return &funcProgram{
		body: body,
		t: &T{
			reqCh:  make(chan Request),
			resCh:  make(chan Result),
			killCh: make(chan struct{}),
		},
		doneCh: make(chan struct{}),
	}
}

// T is the operation handle passed to a Func body. Its methods block until
// the machine schedules the operation and return its result.
type T struct {
	reqCh  chan Request
	resCh  chan Result
	killCh chan struct{}
	tag    Tag
}

type killSentinel struct{}

func (t *T) do(req Request) Result {
	if req.Tag == (Tag{}) {
		req.Tag = t.tag
	}
	select {
	case t.reqCh <- req:
	case <-t.killCh:
		panic(killSentinel{})
	}
	select {
	case res := <-t.resCh:
		return res
	case <-t.killCh:
		panic(killSentinel{})
	}
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
	body    def
	t       *T
	doneCh  chan struct{}
	started bool
	stopped bool
}

// def keeps the function field readable in the struct above.
type def = func(*T)

var _ Program = (*funcProgram)(nil)
var _ Stopper = (*funcProgram)(nil)

// NextInto implements Program by relaying results/requests to the body
// goroutine, storing the body's next request into *req.
func (p *funcProgram) NextInto(prev Result, req *Request) bool {
	if !p.started {
		p.started = true
		go func() {
			defer close(p.doneCh)
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(killSentinel); !ok {
						panic(r)
					}
				}
			}()
			p.body(p.t)
		}()
	} else {
		select {
		case p.t.resCh <- prev:
		case <-p.doneCh:
			return true
		}
	}
	select {
	case *req = <-p.t.reqCh:
		return false
	case <-p.doneCh:
		return true
	}
}

// Stop releases the body goroutine if it is still blocked on an operation.
func (p *funcProgram) Stop() {
	if !p.started || p.stopped {
		return
	}
	p.stopped = true
	select {
	case <-p.doneCh:
	default:
		close(p.t.killCh)
		<-p.doneCh
	}
}
