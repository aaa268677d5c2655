package experiments

import (
	"fmt"
	"sort"
	"strings"

	"asyncsgd/internal/contention"
	"asyncsgd/internal/core"
	"asyncsgd/internal/grad"
	"asyncsgd/internal/report"
	"asyncsgd/internal/sched"
	"asyncsgd/internal/shm"
	"asyncsgd/internal/sweep"
	"asyncsgd/internal/vec"
)

// E9Views regenerates Figure 1 (the pending-updates picture of the
// algorithm model) and checks the structural invariants behind it:
// Lemma 6.1 (at most n simultaneously incomplete iterations) and the full
// sequential-consistency replay of the execution trace (every read
// returned exactly the initial value plus the fetch&adds executed before
// it — i.e. each view v_t is composed of updates contained in x_t).
func E9Views(s Scale) ([]*report.Table, error) {
	const (
		n = 3
		d = 6
	)
	T := s.pick(24, 60)
	q, err := grad.NewIsoQuadratic(d, 1, 0.5, 3, nil)
	if err != nil {
		return nil, err
	}
	x0 := vec.Constant(d, 0.5)

	// Run once with a full trace for the replay check and the figure.
	var trace []shm.Step
	res, err := runTraced(n, T, q, x0, &trace)
	if err != nil {
		return nil, err
	}
	tracker := res.Tracker

	inv := report.New("E9a: Figure-1 model invariants",
		"invariant", "measured", "bound", "holds")
	maxInc := tracker.MaxIncomplete()
	inv.AddRow("Lemma 6.1: max simultaneously incomplete iterations",
		report.In(maxInc), report.In(n), boolCell(maxInc <= n))
	replayErrs := 0
	if err := shm.CheckTrace(trace, 1+d, append([]float64{0}, x0...)); err != nil {
		replayErrs = 1
	}
	inv.AddRow("views contained in x_t (trace replay mismatches)",
		report.In(replayErrs), "0", boolCell(replayErrs == 0))
	ordered := 0
	for _, tl := range tracker.Timelines() {
		if tl.OrderIdx > 0 {
			ordered++
		}
	}
	inv.AddRow("total order covers completed iterations",
		report.In(ordered), report.In(tracker.Completed()),
		boolCell(ordered == tracker.Completed()))

	fig := report.New("E9b: Figure-1 pending-update matrix (snapshot mid-run)")
	fig.Columns = []string{"rendering"}
	for _, line := range strings.Split(RenderFigure1(tracker, d, T), "\n") {
		fig.AddRow(line)
	}
	return []*report.Table{inv, fig}, nil
}

// runTraced runs a small adversarial epoch while capturing the raw
// operation trace via a policy tap (RunEpoch does not expose step traces).
func runTraced(n, T int, q grad.Oracle, x0 vec.Dense,
	trace *[]shm.Step) (*core.EpochResult, error) {
	return core.RunEpoch(core.EpochConfig{
		Threads: n, TotalIters: T, Alpha: 0.05, Oracle: q,
		Policy: traceTap{inner: &sched.MaxStale{Budget: 5}, trace: trace},
		Seed:   77, X0: x0, Track: true, Record: true,
	})
}

// traceTap wraps a policy and records every executed step by observing
// pending requests at decision time; the executed op is the chosen
// thread's pending request, executed at time Time()+1. Its result is
// recorded from the register at decision time: the value read, or the
// prior value of a write, fetch&add or CAS, and a CAS's outcome. It
// clears the inner decision's Hold, since a held run would skip the steps
// it records.
type traceTap struct {
	inner shm.Policy
	trace *[]shm.Step
}

func (t traceTap) Next(v *shm.View) shm.Decision {
	d := t.inner.Next(v)
	d.Hold = shm.RoleNone
	if req, ok := v.Pending(d.Thread); ok {
		old := v.Load(req.Addr)
		*t.trace = append(*t.trace, shm.Step{
			Time: v.Time() + 1, Thread: d.Thread, Req: *req,
			Res: shm.Result{Valid: true, Val: old, OK: req.Kind == shm.OpCAS && old == req.Exp},
		})
	}
	return d
}

// RenderFigure1 renders the paper's Figure 1: rows are ordered iterations,
// columns are model coordinates; '#' marks updates applied to shared
// memory by the snapshot time (red in the paper), 'o' marks updates still
// pending at the snapshot (black), '.' marks coordinates the iteration
// does not update. The dot row/column structure shows which prefix of
// updates each in-flight view can contain.
func RenderFigure1(tr *contention.Tracker, d, horizon int) string {
	tls := tr.Timelines()
	// Snapshot near the median first-update time, preferring a point
	// inside some iteration's update phase so the picture shows the
	// paper's partially-applied row (the "dot"). Roughly half the ordered
	// rows end up applied ('#') and half pending ('o').
	snap := 0
	var firsts []int
	for _, tl := range tls {
		if tl.FirstUp > 0 {
			firsts = append(firsts, tl.FirstUp)
		}
	}
	sort.Ints(firsts)
	if len(firsts) > 0 {
		snap = firsts[len(firsts)/2]
		// Nudge into the widest update phase straddling the median.
		best := 0
		for _, tl := range tls {
			if tl.FirstUp <= snap && tl.End > snap && tl.End-tl.FirstUp > best {
				best = tl.End - tl.FirstUp
				snap = tl.FirstUp + best/2
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "snapshot at step %d; rows = iterations (paper order), cols = coordinates\n", snap)
	fmt.Fprintf(&b, "'#' applied by snapshot, 'o' pending, '.' untouched\n")
	shown := 0
	for order := 1; shown < horizon; order++ {
		var cur *contention.IterTimeline
		for i := range tls {
			if tls[i].OrderIdx == order {
				cur = &tls[i]
				break
			}
		}
		if cur == nil {
			break
		}
		shown++
		fmt.Fprintf(&b, "t=%2d thread %d: ", order, cur.Thread)
		for j := 0; j < d; j++ {
			switch u := cur.UpdateTimes[j]; {
			case u == 0:
				b.WriteByte('.')
			case u <= snap:
				b.WriteByte('#')
			default:
				b.WriteByte('o')
			}
		}
		b.WriteByte('\n')
	}
	return strings.TrimRight(b.String(), "\n")
}

// E10Throughput is the Section-8 practical story on real threads: updates
// per second and solution quality for lock-free vs coarse-lock vs
// striped-lock across worker counts. On a single-core host the absolute
// numbers compress; the recorded shape claim is that lock-free never loses
// to coarse locking and the gap widens with workers and contention. The τ
// columns are the paper's interval contention over each run's windows in
// claim-counter time (Spec.Probe), so τavg ≤ 2n holds in every row.
//
// The mode × workers grid is a sweep spec: the engine derives per-cell
// seeds, schedules the cells on its weighted pool (multi-worker cells get
// the machine to themselves, so throughput cells don't pollute each
// other), and returns results in deterministic cell order.
func E10Throughput(s Scale) ([]*report.Table, error) {
	lockFree := sweep.LockFree()
	lockFree.Padded = true // the lock-free arm measures throughput: pad out false sharing
	results, err := sweep.Run(sweep.Spec{
		Name:    "e10-throughput",
		Seed:    31,
		Oracles: []sweep.Oracle{isoQuadOracle16()},
		Strategies: []sweep.Strategy{
			lockFree,
			sweep.StripedLock(16), // one lock per coordinate at d=16
			sweep.CoarseLock(),
		},
		Workers: []int{1, 2, 4, 8},
		Alphas:  []float64{0.02},
		Iters:   s.pick(20000, 200000),
		Probe:   true,
		// updates/sec is the measurement: serialize the cells so small
		// cells never share cores with siblings and rows stay comparable.
		MaxConcurrent: 1,
	})
	if err != nil {
		return nil, err
	}
	tbl := report.New("E10: real-thread throughput and quality",
		"mode", "workers", "updates/sec", "final_dist2", "tau_avg", "tau_max")
	tbl.Note = "iso quadratic d=16; CAS-emulated float fetch&add; single trial per cell (sweep engine); " +
		"tau = interval contention over the claim-counter windows"
	for _, r := range results {
		if r.Err != "" {
			return nil, fmt.Errorf("cell %d (%s, %d workers): %s", r.Index, r.Strategy, r.Workers, r.Err)
		}
		tbl.AddRow(r.Strategy, report.In(r.Workers),
			report.Fl(r.UpdatesPerSec), report.Fl(r.FinalDist2),
			report.Fl(r.AvgStaleness), report.In(r.MaxStaleness))
	}
	return []*report.Table{tbl}, nil
}
