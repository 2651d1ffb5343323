package faultinject

// The one run path. Every campaign run is an armed plan of
// MultiInjections: a single-fault run is a one-injection plan, a
// multi-fault run a plan of two or more, and a background (IPC-sweep)
// run the empty plan. One function arms a plan on a booted or forked
// machine, runs it and classifies the result (runShape.run); one boots
// a run cold (runShape.cold); one serves a run warm from its class's
// snapshot ladder, falling back to a cold boot (runner.serve); and one
// fans a campaign out across workers (fanout.run). What differs between
// the three shapes is data (runShape), and the public result types are
// thin adapters over MultiRunResult.
//
// Every run returns a typed serving decision; a campaign's PlaneStats
// is the fold of those decisions in plan order, after the fan-out, so
// no counter is shared between workers.

import (
	"maps"
	"sort"
	"strconv"

	"repro/internal/audit"
	"repro/internal/boot"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/parallel"
	"repro/internal/seep"
	"repro/internal/sim"
	"repro/internal/testsuite"
	"repro/internal/usr"
)

// runShape is the per-shape data of the run path.
type runShape struct {
	// config is the machine configuration of the shape's runs; the
	// pathfinder of each configuration class boots with exactly it.
	config func(policy seep.Policy, seed uint64, ipc IPCOptions) core.Config
	// salt derives the fault RNG (corruption targets) from the run seed.
	salt uint64
	// degraded classifies completed runs that quarantined a component as
	// OutcomeDegradedPass. Single-fault runs never quarantine; background
	// runs keep the paper's four classes although quarantine is on.
	degraded bool
}

var (
	singleShape = runShape{config: singleFaultConfig, salt: 0xFA0175EED}
	multiShape  = runShape{config: multiFaultConfig, salt: 0x3A17F0C57, degraded: true}
	// backgroundShape arms nothing, so its fault RNG never draws.
	backgroundShape = runShape{config: multiFaultConfig}
)

// plain reports whether the fault counts its occurrence from run start:
// neither correlated (counted from the first recovery) nor
// during-recovery (counted in restarts). Only plain triggers anchor the
// serving rung and shift into its frame.
func (m MultiInjection) plain() bool { return !m.Correlated && !m.DuringRecovery }

func plansArmIPC(injs []MultiInjection) bool {
	for _, inj := range injs {
		if inj.Type.IPC() {
			return true
		}
	}
	return false
}

// cold boots one run from scratch on a machine carrying exec's
// machine-level switches and runs the plan on it.
func (sh runShape) cold(exec Exec, policy seep.Policy, seed uint64, injs []MultiInjection, ipc IPCOptions) MultiRunResult {
	var report testsuite.Report
	sys := bootSuite(exec.machine(sh.config(policy, seed, ipc.normalized(plansArmIPC(injs)))), &report)
	return sh.run(sys, &report, seed, injs, injs, nil)
}

// run arms the plan on a prepared machine — cold-booted or forked from
// a ladder rung — runs the suite and classifies the outcome. armed
// carries occurrences counted from the machine's current position
// (injs itself on cold boots; plain occurrences shifted into the rung's
// frame on forks); the result always reports injs as planned. A non-nil
// elider lets a fork splice the pathfinder's recorded tail once every
// armed fault has resolved (see elide.go); cold boots pass nil.
func (sh runShape) run(sys *boot.System, report *testsuite.Report, seed uint64, injs, armed []MultiInjection, el *elider) MultiRunResult {
	k := sys.Kernel()
	rng := sim.NewRNG(seed ^ sh.salt)
	triggered := make([]bool, len(armed))
	remaining := make([]int, len(armed))
	for i, inj := range armed {
		remaining[i] = inj.Occurrence
	}

	k.SetPointHook(func(ep kernel.Endpoint, name, site string) {
		for i := range armed {
			inj := &armed[i]
			if inj.DuringRecovery || (triggered[i] && !inj.Persistent) {
				continue
			}
			if name != inj.Server || site != inj.Site {
				continue
			}
			if inj.Correlated && sys.Recoveries == 0 {
				// Armed only once the first recovery has happened.
				continue
			}
			if !triggered[i] {
				remaining[i]--
				if remaining[i] > 0 {
					continue
				}
				triggered[i] = true
			}
			// At most one fault manifests per point execution; a crash
			// unwinds the component anyway. A persistent fault keeps
			// firing on every later execution of its site.
			applyFault(sys, ep, inj.Type, rng)
			return
		}
	})

	restarts := 0
	sys.SetRestartHook(func(ep kernel.Endpoint, attempt int) {
		restarts++
		for i := range armed {
			inj := &armed[i]
			if triggered[i] || !inj.DuringRecovery {
				continue
			}
			if restarts < inj.Occurrence {
				continue
			}
			triggered[i] = true
			// The hook runs inside the restart sequence: this panic is a
			// fault in the recovery path, forcing the sequencer to
			// escalate (retry, then quarantine).
			panic("edfi: injected fault in recovery path")
		}
	})

	aud := audit.Attach(sys.OS)
	if el != nil {
		// The suffix is provably fault-free only when every fault that
		// could still fire has resolved: persistent faults re-fire on
		// every site execution, so they never elide; an untriggered
		// plain or correlated fault could fire in the suffix, so it must
		// have triggered. During-recovery faults need a restart to fire,
		// and with everything else triggered and quiesced no further
		// restart can happen. An empty plan is ready at once. Faults
		// the hook armed but the machine has not yet manifested (one-shot
		// transport faults, reply overrides) are blocked by the
		// quiescence gate.
		hasPersistent := false
		for _, inj := range armed {
			if inj.Persistent {
				hasPersistent = true
			}
		}
		el.ready = func() bool {
			if hasPersistent {
				return false
			}
			for i := range armed {
				if !armed[i].DuringRecovery && !triggered[i] {
					return false
				}
			}
			return true
		}
	}
	res, elided := runElidable(sys, report, aud, el)
	nTriggered := 0
	for _, tr := range triggered {
		if tr {
			nTriggered++
		}
	}
	out := MultiRunResult{
		Injections:  injs,
		Outcome:     classify(res, report, sh.degraded && sys.Quarantines > 0),
		Triggered:   nTriggered,
		TestsFailed: report.Failed,
		Recoveries:  sys.Recoveries,
		Quarantines: sys.Quarantines,
		Reason:      res.Reason,
		Seed:        seed,
	}
	if !elided && res.Outcome == kernel.OutcomeCompleted {
		// An elided run skips the final audit pass: its elision gates
		// already required every prior pass plus a barrier-time pass to
		// be clean, and the spliced suffix is the pathfinder's audited
		// fault-free tail.
		aud.Final()
	}
	out.Consistent = aud.Consistent()
	for _, v := range aud.Violations() {
		out.Violations = append(out.Violations, v.String())
	}
	return out
}

// singleResult adapts a one-injection run to the single-fault result.
func singleResult(inj Injection, m MultiRunResult) RunResult {
	return RunResult{
		Injection:   inj,
		Outcome:     m.Outcome,
		Triggered:   m.Triggered > 0,
		TestsFailed: m.TestsFailed,
		Reason:      m.Reason,
		Seed:        m.Seed,
		Consistent:  m.Consistent,
		Violations:  m.Violations,
	}
}

// classPlane is the warm plane of one configuration class: its ladder,
// or — when the class cannot be served warm — the fallback reason every
// run of the class is charged with.
type classPlane struct {
	ladder *ladder
	reason string
}

// runner serves the runs of one campaign or sweep: forked from the
// snapshot ladder of the run's configuration class when it can, cold
// otherwise. Serving is concurrency-safe: the ladder walk is locked,
// forks are read-only on snapshots.
type runner struct {
	shape  runShape
	policy seep.Policy
	seed   uint64
	exec   Exec
	// planes holds one warm plane per configuration class, keyed by the
	// class's normalized transport options: they differ when a plan arms
	// a transport fault (which forces the reliability layer on) and
	// between the rate points of a sweep.
	planes map[IPCOptions]*classPlane
	// fork materializes a rung fork and build a class's ladder; tests
	// swap them to drive the fork-failed and capture-failed fallbacks.
	fork  func(*boot.Snapshot, boot.ForkParams, usr.Program, ...string) (*boot.System, error)
	build func(core.Config, Exec) *ladder
}

// newRunner returns a runner with no planes yet; open adds them.
func newRunner(sh runShape, policy seep.Policy, seed uint64, exec Exec) *runner {
	return &runner{
		shape:  sh,
		policy: policy,
		seed:   seed,
		exec:   exec,
		planes: make(map[IPCOptions]*classPlane),
		fork:   (*boot.Snapshot).Fork,
		build:  newLadder,
	}
}

// open builds the plane of the configuration class whose normalized
// transport options are ipc, unless it exists. A class whose runs all
// boot cold — pinned by Exec.ColdBoot, or carrying background rates —
// boots no pathfinder.
func (r *runner) open(ipc IPCOptions) {
	if _, ok := r.planes[ipc]; ok {
		return
	}
	pl := &classPlane{}
	switch {
	case r.exec.ColdBoot:
		pl.reason = FallbackColdBootPinned
	case ipc.Faults.Enabled():
		pl.reason = FallbackBackgroundRates
	default:
		if pl.ladder = r.build(r.exec.machine(r.shape.config(r.policy, r.seed, ipc)), r.exec); pl.ladder == nil {
			pl.reason = FallbackNoSnapshot
		}
	}
	r.planes[ipc] = pl
}

// openSingle opens the configuration classes of a single-fault plan.
func (r *runner) openSingle(ipc IPCOptions, plan []Injection) {
	for _, inj := range plan {
		r.open(ipc.normalized(inj.Type.IPC()))
	}
}

// close tears down the pathfinder machines. Snapshots and recorded
// rungs stay valid; call it when the campaign is done forking.
func (r *runner) close() {
	for _, pl := range r.planes {
		if pl.ladder != nil {
			pl.ladder.Close()
		}
	}
}

// serve executes one plan with transport options ipc (as configured)
// and returns its result and serving decision. The run forks from its
// class's ladder (see ladder.serve for the rung) with plain occurrences
// shifted into the rung's frame, or boots cold, charged to a fallback
// reason, when the class has no ladder or the ladder cannot serve the
// plan.
func (r *runner) serve(seed uint64, injs []MultiInjection, ipc IPCOptions) (MultiRunResult, serving) {
	cold := func(reason string) (MultiRunResult, serving) {
		return r.shape.cold(r.exec, r.policy, seed, injs, ipc), serving{kind: servedCold, reason: reason}
	}
	norm := ipc.normalized(plansArmIPC(injs))
	pl := r.planes[norm]
	if pl.ladder == nil {
		return cold(pl.reason)
	}
	idx, rg, snap, ok := pl.ladder.serve(injs)
	if !ok {
		return cold(FallbackPreBarrier)
	}
	var report testsuite.Report
	sys, err := r.fork(snap, forkParams(seed, norm), testsuite.RunnerResumeFrom(&report, rg.prefix))
	if err != nil {
		return cold(FallbackForkFailed)
	}
	el := &elider{l: pl.ladder, served: serving{rung: idx}}
	return r.shape.run(sys, &report, seed, injs, rg.translate(injs), el), el.served
}

// single serves a one-injection plan and adapts its result.
func (r *runner) single(seed uint64, inj Injection, ipc IPCOptions) (RunResult, serving) {
	m, s := r.serve(seed, []MultiInjection{{Injection: inj}}, ipc)
	return singleResult(inj, m), s
}

// servingKind is how one campaign run was served.
type servingKind uint8

const (
	// servedCold: booted from scratch, charged to a fallback reason.
	servedCold servingKind = iota + 1
	// servedElided: forked from a rung and spliced the pathfinder tail
	// at a quiescence barrier.
	servedElided
	// servedFull: forked from a rung and executed the suffix in full,
	// charged to an elision fallback reason.
	servedFull
	// servedJournal: the result was read verbatim from a campaign
	// journal; an earlier campaign served the run.
	servedJournal
)

// serving is the typed serving decision of one run.
type serving struct {
	kind servingKind
	// rung is the ladder rung a warm run forked from (0: boot barrier).
	rung int
	// barrier is the suite index of the barrier where an elided run
	// spliced its tail.
	barrier int
	// reason is the fallback reason of a cold or full run.
	reason string
}

// String renders the decision as Trace.Serving records it:
// "cold:<fallback reason>", "rung:<idx> elided:<barrier>",
// "rung:<idx> full:<elision fallback reason>" or "journal".
func (s serving) String() string {
	switch s.kind {
	case servedCold:
		return "cold:" + s.reason
	case servedElided:
		return "rung:" + strconv.Itoa(s.rung) + " elided:" + strconv.Itoa(s.barrier)
	case servedFull:
		return "rung:" + strconv.Itoa(s.rung) + " full:" + s.reason
	default:
		return "journal"
	}
}

// PlaneStats reports how the warm plane served a campaign: the fold of
// its runs' serving decisions in plan order (journal-served runs are
// skipped). Outcomes are bit-identical however runs are served; the
// serving split itself is deterministic under an ample cache budget,
// but may vary with worker interleaving when LRU eviction is active
// (different serve orders evict different rungs).
type PlaneStats struct {
	// LadderForks counts runs forked from a mid-suite rung (>= 1).
	LadderForks int
	// BootForks counts runs forked from the post-install boot barrier.
	BootForks int
	// ColdBoots counts runs that fell back to a full cold boot.
	ColdBoots int
	// Fallbacks breaks ColdBoots down by reason (nil when no run booted
	// cold).
	Fallbacks map[string]int
	// Elided counts warm-served runs that ended at a quiescence barrier
	// by splicing the recorded pathfinder tail instead of re-executing
	// the remaining suite suffix (see elide.go).
	Elided int
	// ElisionFallbacks breaks warm-served, fully-executed runs down by
	// the elision fallback reason charged to each (the last blocker
	// standing when the run completed; nil when none). Elided plus the
	// sum over ElisionFallbacks equals LadderForks plus BootForks: every
	// warm run either elided its tail or is charged exactly one reason.
	ElisionFallbacks map[string]int
}

// add folds one run's serving decision into the split.
func (s *PlaneStats) add(d serving) {
	switch d.kind {
	case servedJournal:
		return
	case servedCold:
		s.ColdBoots++
		s.Fallbacks = bump(s.Fallbacks, d.reason)
		return
	}
	if d.rung > 0 {
		s.LadderForks++
	} else {
		s.BootForks++
	}
	if d.kind == servedElided {
		s.Elided++
	} else {
		s.ElisionFallbacks = bump(s.ElisionFallbacks, d.reason)
	}
}

func bump(m map[string]int, key string) map[string]int {
	if m == nil {
		m = make(map[string]int)
	}
	m[key]++
	return m
}

// clone returns a copy that shares no map with s.
func (s PlaneStats) clone() PlaneStats {
	s.Fallbacks = maps.Clone(s.Fallbacks)
	s.ElisionFallbacks = maps.Clone(s.ElisionFallbacks)
	return s
}

// Total returns the number of runs the plane served.
func (s PlaneStats) Total() int { return s.LadderForks + s.BootForks + s.ColdBoots }

// FallbackReasons returns the fallback reasons in sorted order.
func (s PlaneStats) FallbackReasons() []string { return sortedKeys(s.Fallbacks) }

// ElisionFallbackReasons returns the elision fallback reasons in sorted
// order.
func (s PlaneStats) ElisionFallbackReasons() []string { return sortedKeys(s.ElisionFallbacks) }

func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for r := range m {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// fanout is the campaign plumbing shared by every campaign shape: the
// worker count, the optional journal with its typed accessors, and the
// plan-order observers.
type fanout[R any] struct {
	workers  int
	journal  *Journal
	lookup   func(*Journal, int) (R, bool)
	record   func(*Journal, int, R)
	onServe  func(index int, decision string)
	onResult func(index int, r R)
}

// run serves runs 0..n-1 across the parallel engine — reading
// journaled results instead of re-running them, journaling new ones —
// then calls OnServe and OnResult in plan order and folds the serving
// decisions into the campaign's PlaneStats. Results are reduced in plan
// order and are bit-identical for any worker count.
func (f fanout[R]) run(n int, serve func(i int) (R, serving)) ([]R, PlaneStats) {
	served := make([]serving, n)
	results := parallel.Map(f.workers, n, func(i int) R {
		if f.journal != nil {
			if r, ok := f.lookup(f.journal, i); ok {
				served[i] = serving{kind: servedJournal}
				return r
			}
		}
		r, s := serve(i)
		served[i] = s
		if f.journal != nil {
			f.record(f.journal, i, r)
		}
		return r
	})
	var stats PlaneStats
	for i, r := range results {
		stats.add(served[i])
		if f.onServe != nil {
			f.onServe(i, served[i].String())
		}
		if f.onResult != nil {
			f.onResult(i, r)
		}
	}
	return results, stats
}
