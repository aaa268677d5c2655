package shm

import (
	"errors"
	"slices"
	"testing"
)

// rrPolicy is a minimal round-robin policy for tests.
type rrPolicy struct{ last int }

func (p *rrPolicy) Next(v *View) Decision {
	n := v.NumThreads()
	for k := 1; k <= n; k++ {
		i := (p.last + k) % n
		if v.Live(i) {
			p.last = i
			return Decision{Thread: i}
		}
	}
	return Decision{Thread: -1}
}

// fixedPolicy always schedules one thread.
type fixedPolicy struct{ tid int }

func (p fixedPolicy) Next(*View) Decision { return Decision{Thread: p.tid} }

// crashPolicy crashes a thread at a given step, then round-robins.
type crashPolicy struct {
	rr      rrPolicy
	victim  int
	atStep  int
	crashed bool
}

func (p *crashPolicy) Next(v *View) Decision {
	d := p.rr.Next(v)
	if !p.crashed && v.Time() >= p.atStep {
		p.crashed = true
		d.Crash = []int{p.victim}
		if d.Thread == p.victim {
			// pick another live thread
			for i := 0; i < v.NumThreads(); i++ {
				if i != p.victim && v.Live(i) {
					d.Thread = i
					break
				}
			}
		}
	}
	return d
}

func TestSingleThreadCounter(t *testing.T) {
	prog := Func(func(th *T) {
		for i := 0; i < 10; i++ {
			th.FAA(0, 1)
		}
	})
	m, err := New(Config{MemSize: 1}, &rrPolicy{}, prog)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Steps != 10 || stats.Completed != 1 {
		t.Errorf("stats = %+v", stats)
	}
	if m.Mem()[0] != 10 {
		t.Errorf("counter = %v", m.Mem()[0])
	}
}

func TestFAAReturnsPriorAndIsAtomic(t *testing.T) {
	const n, per = 4, 25
	seen := make(map[float64]bool)
	progs := make([]Program, n)
	for i := 0; i < n; i++ {
		progs[i] = Func(func(th *T) {
			for k := 0; k < per; k++ {
				old := th.FAA(0, 1)
				seen[old] = true // machine is sequential: no data race
			}
		})
	}
	m, err := New(Config{MemSize: 1}, &rrPolicy{}, progs...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Mem()[0] != n*per {
		t.Fatalf("total = %v, want %d", m.Mem()[0], n*per)
	}
	// fetch&add priors must be exactly 0..n*per-1 with no duplicates:
	// the defining property of an atomic counter.
	for k := 0; k < n*per; k++ {
		if !seen[float64(k)] {
			t.Fatalf("prior value %d never observed", k)
		}
	}
}

func TestReadWriteCAS(t *testing.T) {
	var gotPrior float64
	var swapped, swapped2 bool
	prog := Func(func(th *T) {
		th.Write(2, 5)
		if got := th.Read(2); got != 5 {
			t.Errorf("read = %v", got)
		}
		gotPrior, swapped = th.CAS(2, 5, 9)
		_, swapped2 = th.CAS(2, 5, 11) // stale expected
	})
	m, err := New(Config{MemSize: 3}, &rrPolicy{}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if gotPrior != 5 || !swapped {
		t.Errorf("CAS prior=%v swapped=%v", gotPrior, swapped)
	}
	if swapped2 {
		t.Error("stale CAS succeeded")
	}
	if m.Mem()[2] != 9 {
		t.Errorf("mem[2] = %v", m.Mem()[2])
	}
}

func TestInitMem(t *testing.T) {
	var read float64
	prog := Func(func(th *T) { read = th.Read(1) })
	m, err := New(Config{MemSize: 2, InitMem: []float64{3, 7}}, &rrPolicy{}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if read != 7 {
		t.Errorf("read initial mem = %v", read)
	}
}

func TestMaxStepsStopsAndReleasesGoroutines(t *testing.T) {
	prog := Func(func(th *T) {
		for { // infinite loop; must be stopped by MaxSteps + Stop
			th.FAA(0, 1)
		}
	})
	m, err := New(Config{MemSize: 1, MaxSteps: 7}, &rrPolicy{}, prog)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Steps != 7 || stats.Stalled != 1 {
		t.Errorf("stats = %+v", stats)
	}
	if m.Mem()[0] != 7 {
		t.Errorf("counter = %v", m.Mem()[0])
	}
}

// TestFuncBodyPanicReachesRunCaller: a Func body's own panic surfaces
// from Machine.Run on the caller's goroutine, with its value intact.
func TestFuncBodyPanicReachesRunCaller(t *testing.T) {
	prog := Func(func(th *T) {
		th.FAA(0, 1)
		panic("body failed")
	})
	m, err := New(Config{MemSize: 1}, &rrPolicy{}, prog)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r != "body failed" {
			t.Errorf("recovered %v, want the body's panic", r)
		}
	}()
	_, _ = m.Run()
	t.Error("Run returned normally")
}

func TestCrashedThreadNeverRunsAgain(t *testing.T) {
	mk := func() Program {
		return Func(func(th *T) {
			for i := 0; i < 50; i++ {
				th.FAA(0, 1)
			}
		})
	}
	p := &crashPolicy{victim: 0, atStep: 10}
	m, err := New(Config{MemSize: 1}, p, mk(), mk())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Crashed != 1 || stats.Completed != 1 {
		t.Errorf("stats = %+v", stats)
	}
	// Thread 1 contributes all 50; thread 0 contributed some prefix < 50.
	if m.Mem()[0] >= 100 || m.Mem()[0] < 50 {
		t.Errorf("counter = %v", m.Mem()[0])
	}
}

func TestCannotCrashAllThreads(t *testing.T) {
	prog := Func(func(th *T) { th.FAA(0, 1) })
	pol := &crashPolicy{victim: 0, atStep: 0}
	m, err := New(Config{MemSize: 1}, pol, prog)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run()
	if !errors.Is(err, ErrTooManyDead) {
		t.Errorf("err = %v, want ErrTooManyDead", err)
	}
}

func TestBadPolicyThreadRejected(t *testing.T) {
	prog := Func(func(th *T) { th.FAA(0, 1) })
	m, err := New(Config{MemSize: 1}, fixedPolicy{tid: 5}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); !errors.Is(err, ErrBadThread) {
		t.Errorf("err = %v, want ErrBadThread", err)
	}
}

func TestBadAddressRejected(t *testing.T) {
	prog := Func(func(th *T) { th.Read(99) })
	m, err := New(Config{MemSize: 1}, &rrPolicy{}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); !errors.Is(err, ErrBadAddress) {
		t.Errorf("err = %v, want ErrBadAddress", err)
	}
}

func TestRunTwiceRejected(t *testing.T) {
	prog := Func(func(th *T) { th.FAA(0, 1) })
	m, err := New(Config{MemSize: 1}, &rrPolicy{}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); !errors.Is(err, ErrAlreadyRan) {
		t.Errorf("second Run err = %v", err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{MemSize: 1}, &rrPolicy{}); !errors.Is(err, ErrNoThreads) {
		t.Errorf("no programs err = %v", err)
	}
	if _, err := New(Config{}, &rrPolicy{}, Func(func(*T) {})); err == nil {
		t.Error("zero MemSize accepted")
	}
	if _, err := New(Config{MemSize: 1, InitMem: []float64{1, 2}},
		&rrPolicy{}, Func(func(*T) {})); err == nil {
		t.Error("oversized InitMem accepted")
	}
}

func TestTrace(t *testing.T) {
	prog := Func(func(th *T) {
		th.Annotate(Tag{Role: RoleCounter, Iter: 7})
		th.FAA(0, 2)
		th.Annotate(Tag{})
		th.Read(0)
	})
	m, err := New(Config{MemSize: 1, Trace: true}, &rrPolicy{}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	tr := m.Trace()
	if len(tr) != 2 {
		t.Fatalf("trace has %d steps, want 2", len(tr))
	}
	if tr[0].Req.Kind != OpFAA || tr[0].Req.Tag != (Tag{Role: RoleCounter, Iter: 7}) {
		t.Errorf("step0 = %+v", tr[0].Req)
	}
	if tr[1].Req.Kind != OpRead || tr[1].Req.Tag != (Tag{}) {
		t.Errorf("step1 = %+v", tr[1].Req)
	}
	if tr[0].Time != 1 || tr[1].Time != 2 {
		t.Errorf("times = %d, %d", tr[0].Time, tr[1].Time)
	}

	// The in-place contract: a hand-written state machine that rewrites
	// only Tag.Iter, relying on *req still holding its previous request,
	// must trace exactly like the same counter workload written with Func.
	const threads, per = 3, 4
	trace := func(progs []Program) []Step {
		m, err := New(Config{MemSize: 1, Trace: true}, &rrPolicy{}, progs...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m.Trace()
	}
	funcs := make([]Program, threads)
	states := make([]Program, threads)
	for id := 0; id < threads; id++ {
		funcs[id] = Func(func(th *T) {
			for k := 0; k < per; k++ {
				th.Annotate(Tag{Thread: id, Iter: k, Role: RoleCounter})
				th.FAA(0, 1)
			}
		})
		states[id] = &inplaceCounter{id: id, per: per}
	}
	want, got := trace(funcs), trace(states)
	if len(want) != threads*per || len(got) != len(want) {
		t.Fatalf("trace lengths: func %d, in-place %d, want %d", len(want), len(got), threads*per)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d: in-place %+v, func %+v", i, got[i], want[i])
		}
	}
}

// inplaceCounter issues per tagged fetch&adds on register 0. After the
// first request it rewrites only Tag.Iter, so it depends on the machine
// leaving the previous request in the pending slot.
type inplaceCounter struct{ id, per, issued int }

func (c *inplaceCounter) NextInto(_ Result, req *Request) bool {
	if c.issued == c.per {
		return true
	}
	if c.issued == 0 {
		*req = Request{Kind: OpFAA, Addr: 0, Val: 1, Tag: Tag{Thread: c.id, Role: RoleCounter}}
	} else {
		req.Tag.Iter = c.issued
	}
	c.issued++
	return false
}

// Sequential consistency smoke test: with two writers to distinct
// registers, every interleaving leaves both final values in place, and a
// reader never observes a value that was never written.
func TestSequentialConsistencySmoke(t *testing.T) {
	writer := func(addr int, v float64) Program {
		return Func(func(th *T) { th.Write(addr, v) })
	}
	var r1, r2 float64
	reader := Func(func(th *T) {
		r1 = th.Read(0)
		r2 = th.Read(1)
	})
	m, err := New(Config{MemSize: 2}, &rrPolicy{}, writer(0, 1), writer(1, 2), reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Mem()[0] != 1 || m.Mem()[1] != 2 {
		t.Errorf("final mem = %v", m.Mem())
	}
	if (r1 != 0 && r1 != 1) || (r2 != 0 && r2 != 2) {
		t.Errorf("reader saw impossible values r1=%v r2=%v", r1, r2)
	}
}

func TestOpKindString(t *testing.T) {
	for k, want := range map[OpKind]string{
		OpRead: "read", OpWrite: "write", OpFAA: "fetch&add",
		OpCAS: "compare&swap", OpKind(99): "OpKind(99)",
	} {
		if got := k.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", k, got, want)
		}
	}
}

func TestViewAccessors(t *testing.T) {
	var sawPending bool
	pol := policyFunc(func(v *View) Decision {
		if v.NumThreads() != 2 {
			t.Errorf("NumThreads = %d", v.NumThreads())
		}
		if req, ok := v.Pending(0); ok && req.Kind == OpFAA {
			sawPending = true
		}
		_ = v.Load(0)
		_ = v.LiveCount()
		for i := 0; i < v.NumThreads(); i++ {
			if v.Live(i) {
				return Decision{Thread: i}
			}
		}
		return Decision{Thread: -1}
	})
	mk := func() Program { return Func(func(th *T) { th.FAA(0, 1) }) }
	m, err := New(Config{MemSize: 3}, pol, mk(), mk())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !sawPending {
		t.Error("policy never observed a pending FAA")
	}
}

type policyFunc func(*View) Decision

func (f policyFunc) Next(v *View) Decision { return f(v) }

// TestHoldRunsUntilRoleChangeOrLast: a held decision keeps granting its
// thread while the new pending request has the held role and is not
// tagged Last, and RunStats.Decisions counts only the policy calls.
func TestHoldRunsUntilRoleChangeOrLast(t *testing.T) {
	// One thread: three reads, then two updates, the second tagged Last,
	// then a final read.
	body := func() Program {
		return Func(func(th *T) {
			for i := 0; i < 3; i++ {
				th.Annotate(Tag{Role: RoleRead, Coord: i})
				th.Read(0)
			}
			th.Annotate(Tag{Role: RoleUpdate})
			th.FAA(0, 1)
			th.Annotate(Tag{Role: RoleUpdate, Last: true})
			th.FAA(0, 1)
			th.Annotate(Tag{Role: RoleRead})
			th.Read(0)
		})
	}
	var granted []int // machine time at each policy call
	pol := policyFunc(func(v *View) Decision {
		granted = append(granted, v.Time())
		req, _ := v.Pending(0)
		return Decision{Thread: 0, Hold: req.Tag.Role}
	})
	m, err := New(Config{MemSize: 1}, pol, body())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Calls before the first read (runs the three reads), the first
	// update (stops before the Last one), the Last update and the read.
	want := []int{0, 3, 4, 5}
	if stats.Steps != 6 || stats.Decisions != len(want) || !slices.Equal(granted, want) {
		t.Fatalf("steps %d, decisions %d at times %v; want 6 steps, %d decisions at %v",
			stats.Steps, stats.Decisions, granted, len(want), want)
	}

	// MaxSteps cuts a held run short.
	granted = nil
	m, err = New(Config{MemSize: 1, MaxSteps: 2}, pol, body())
	if err != nil {
		t.Fatal(err)
	}
	if stats, err = m.Run(); err != nil {
		t.Fatal(err)
	}
	if stats.Steps != 2 || stats.Decisions != 1 {
		t.Fatalf("MaxSteps 2: %d steps, %d decisions; want 2 and 1", stats.Steps, stats.Decisions)
	}
}

// TestHoldToEndRunsUntilTermination: a HoldToEnd decision keeps granting
// its thread across role changes and Last tags until the thread
// terminates, or until MaxSteps.
func TestHoldToEndRunsUntilTermination(t *testing.T) {
	body := func() Program {
		return Func(func(th *T) {
			th.Annotate(Tag{Role: RoleCounter})
			th.FAA(0, 1)
			th.Annotate(Tag{Role: RoleRead})
			th.Read(0)
			th.Annotate(Tag{Role: RoleUpdate, Last: true})
			th.FAA(0, 1)
			th.Annotate(Tag{})
			th.Read(0)
		})
	}
	pol := policyFunc(func(*View) Decision { return Decision{Thread: 0, Hold: HoldToEnd} })
	for _, c := range []struct{ maxSteps, steps int }{{0, 4}, {2, 2}} {
		m, err := New(Config{MemSize: 1, MaxSteps: c.maxSteps}, pol, body())
		if err != nil {
			t.Fatal(err)
		}
		stats, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Steps != c.steps || stats.Decisions != 1 {
			t.Fatalf("MaxSteps %d: %d steps, %d decisions; want %d and 1",
				c.maxSteps, stats.Steps, stats.Decisions, c.steps)
		}
	}
}
