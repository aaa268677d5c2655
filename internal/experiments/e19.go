package experiments

import (
	"asyncsgd/internal/report"
	"asyncsgd/internal/serve"
	"asyncsgd/internal/sweep"
)

// E19FaultRecovery is the fault/recovery phase diagram: the robustness
// axes (crash/rejoin fault schedules, Byzantine gradient corruption, and
// the defenses) crossed with the bounded-staleness discipline on both
// runtimes.
//
// Three legs:
//
//   - E19a (machine, deterministic): crash faults × gate discipline under
//     the simulator. The ticket crash kills a thread holding an in-flight
//     gate claim — without the crash-recovery protocol that claim pins the
//     done counter and every survivor stalls at the ≤ τ admission;
//     with recovery armed (as the fault axis does) survivors tombstone the
//     orphaned claim (recovered > 0, stalled = 0) and the run completes.
//     Byte-identical across reruns like every machine sweep.
//
//   - E19b (real threads): the same fault axis on goroutines — the
//     supervisor reclaims abandoned window tickets and spawns replacement
//     workers, and the gated gauge must stay ≤ τ through crash, recovery
//     and rejoin.
//
//   - E19c (real threads): Byzantine corruption × defense. Sign-flip is
//     the coordinated attack clipping cannot fix (the corrupted gradient
//     is norm-plausible) while the coordinate-median aggregation absorbs
//     it; NaN injection destroys the undefended model (loss goes NaN,
//     reported as a degenerate gap) and both defenses defuse it.
func E19FaultRecovery(s Scale) ([]*report.Table, error) {
	seeds := [3]uint64{1901, 1902, 1903}
	roundRobin := 0 // a nil Adversary would select the MaxStale default
	mo := serve.SweepRequest{
		Runtime:    "machine",
		Taus:       []int{4},
		Workers:    []int{3},
		Sparsity:   []float64{0.6},
		Dim:        s.pick(16, 24),
		Replicates: s.pick(2, 3),
		Iters:      s.pick(120, 900),
		Seed:       &seeds[0],
		Adversary:  &roundRobin,
		Faults:     []string{"none", "crash/1", "ticket/1", "ticket/1/rejoin"},
	}
	mstats, err := runPhaseLeg(mo)
	if err != nil {
		return nil, err
	}
	mt := sweep.FaultTable("E19a: crash faults × gate discipline, simulated machine", mstats)
	mt.Note = "bounded-staleness τ=4, 3 threads, crash after " + report.In(sweep.DefaultCrashAfter) +
		" iterations; ticket crashes die holding a gate claim and survivors tombstone it (recovered)"

	ho := mo
	ho.Runtime = "hogwild"
	ho.Workers = []int{4}
	ho.Iters = s.pick(2000, 20000)
	ho.Seed = &seeds[1]
	hstats, err := runPhaseLeg(ho)
	if err != nil {
		return nil, err
	}
	ht := sweep.FaultTable("E19b: crash faults × gate discipline, real threads", hstats)
	ht.Note = "same fault axis on goroutines: the supervisor reclaims abandoned tickets " +
		"and replacement workers rejoin; the gated gauge must hold ≤ τ throughout"

	bo := ho
	bo.Seed = &seeds[2]
	bo.Faults = nil
	bo.Byzantine = []string{"none", "signflip/1", "nan/1"}
	bo.Defenses = []string{"none", "clip/5", "median"}
	bstats, err := runPhaseLeg(bo)
	if err != nil {
		return nil, err
	}
	bt := sweep.FaultTable("E19c: Byzantine gradients × defense, real threads", bstats)
	bt.Note = "1 of 4 workers corrupt; clipping defuses NaN/scale blow-ups but not the " +
		"norm-plausible sign-flip — that takes the coordinate-median aggregation"

	return []*report.Table{mt, ht, bt}, nil
}
