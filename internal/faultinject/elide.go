package faultinject

// Tail elision: fingerprinted convergence makes the re-executed suffix
// of a warm-served run redundant. An armed run forks from a ladder rung,
// executes until its fault triggers and recovery completes, and then —
// by the paper's central claim — converges back onto the fault-free
// trace. From that point the remaining suite suffix is exactly the
// suffix the pathfinder already executed while walking the ladder, so
// re-running it proves nothing and costs the bulk of the run.
//
// At every quiescence barrier after its fault(s) fully recovered, an
// armed run therefore hashes its own semantic state (O(dirty) via the
// rolling store/disk fingerprints — a barrier does not rescan clean
// containers) and compares it against the pathfinder's recorded rung
// fingerprint. On a match the run splices the recorded deltas — suite
// tallies, cycle count, counters — and terminates; the spliced result
// is bit-identical to full execution because the suffix is a
// deterministic function of the matched state and consumes no machine
// randomness (certified by comparing the pathfinder's RNG cursors at
// the rung and at the walk end; see sim.RNG.State).
//
// Soundness gates, each with a named per-run fallback reason:
//
//   - the run must not be pinned to full execution (Exec.NoElide,
//     -noelide — the bit-identity oracle);
//   - every armed fault that could still fire in the suffix must have
//     triggered (persistent faults re-fire forever, so they never
//     elide);
//   - the machine must be elision-quiescent with no permanent fault
//     residue (no quarantine), and every audit pass so far — including
//     a barrier-time pass — must be clean, because a violation embeds
//     its timestamp and an elided run could not reproduce the final
//     pass a full run would record;
//   - the completed pathfinder walk must have recorded a usable tail;
//   - the state fingerprints must match.
//
// A run that never elides executes in full — same machine, same
// schedule, bit-identical outcome — and is charged the last blocking
// reason.

import (
	"sort"

	"repro/internal/audit"
	"repro/internal/boot"
	"repro/internal/kernel"
	"repro/internal/testsuite"
)

// Elision fallback reasons: why a warm-served run executed its suffix
// in full instead of splicing the recorded pathfinder tail. Each run
// is charged exactly one — the last blocker standing when it completed.
const (
	// ElideFallbackPinned: full execution forced via Exec.NoElide
	// (-noelide) — the bit-identity oracle.
	ElideFallbackPinned = "noelide-pinned"
	// ElideFallbackNoTail: the pathfinder walk left no usable tail for
	// the run's barriers — the walk never completed the suite, its
	// end-of-walk audit found violations, the ladder was disabled, or
	// the rung lacked a fingerprint.
	ElideFallbackNoTail = "tail-unavailable"
	// ElideFallbackUntriggered: an armed fault could still fire in the
	// suffix at every barrier the run reached (never-triggering plans
	// and persistent faults land here).
	ElideFallbackUntriggered = "fault-untriggered"
	// ElideFallbackMismatch: the run's barrier state never hashed equal
	// to the pathfinder rung — recovery left a semantic difference that
	// genuinely changes the suffix (or the fingerprint failed).
	ElideFallbackMismatch = "fingerprint-mismatch"
	// ElideFallbackResidue: the machine was never elision-quiescent
	// after its faults (active quarantine, in-flight work at every
	// barrier) or an audit pass recorded a violation.
	ElideFallbackResidue = "state-residue"
)

// elider is the per-run elision context of a warm-served campaign run:
// the ladder carrying the rung fingerprints and recorded tail, the
// run-flavor predicate deciding whether any armed fault could still fire
// in the suffix, and the run's serving decision.
type elider struct {
	l *ladder
	// ready reports that no armed fault can fire in the remaining
	// suffix: every fault that could has triggered, and none re-fires.
	// runShape.run installs it, since only that layer knows the plan's
	// trigger semantics.
	ready func() bool
	// attempts counts fingerprint comparisons spent so far (see
	// maxElideAttempts).
	attempts int
	// served is the run's serving decision: the rung it forked from,
	// completed by runElidable with the elision barrier or the elision
	// fallback reason.
	served serving
}

// maxElideAttempts bounds the fingerprint comparisons one run pays
// for. A recovered run converges onto the fault-free trace within a
// few barriers or not at all — a fault whose damage shows up in a test
// result diverges permanently — so after this many mismatches the run
// stops re-hashing its state at every remaining barrier and simply
// executes the suffix. Purely a cost bound: giving up always falls
// back to bit-identical full execution.
const maxElideAttempts = 8

// runElidable drives a warm-forked machine barrier to barrier,
// attempting tail elision at each quiescence barrier, and returns the
// run result plus whether the tail was elided. With a nil elider (cold
// boots) or elision pinned off it degenerates to ordinary full
// execution. The barrier-to-barrier drive is bit-identical to
// sys.Run: Context.Barrier costs no cycles, counters or scheduling
// effects, and the loop body is Run's (the same invariant the ladder
// pathfinder rests on).
func runElidable(sys *boot.System, report *testsuite.Report, aud *audit.Auditor, el *elider) (kernel.Result, bool) {
	if el == nil {
		return sys.Run(RunLimit), false
	}
	if el.l.noElide {
		el.fallback(ElideFallbackPinned)
		return sys.Run(RunLimit), false
	}
	k := sys.Kernel()
	reason := ElideFallbackUntriggered
	for k.RunToBarrier(RunLimit) {
		res, why, ok := el.tryElide(sys, report, aud)
		if ok {
			return res, true
		}
		reason = why
	}
	// The run finished (completed, crashed, hung or shut down) without
	// eliding: tear the machine down exactly as sys.Run would and
	// charge the last blocking reason.
	res := k.StepResult()
	sys.Shutdown("armed run complete")
	el.fallback(reason)
	return res, false
}

// tryElide evaluates the elision gates at one quiescence barrier. On
// success the machine has been spliced and shut down and the returned
// result is final; otherwise the blocking reason is returned and the
// run keeps executing.
func (el *elider) tryElide(sys *boot.System, report *testsuite.Report, aud *audit.Auditor) (kernel.Result, string, bool) {
	if !el.ready() {
		return kernel.Result{}, ElideFallbackUntriggered, false
	}
	if ok, _ := sys.ElideQuiescent(); !ok {
		return kernel.Result{}, ElideFallbackResidue, false
	}
	if !aud.Consistent() {
		return kernel.Result{}, ElideFallbackResidue, false
	}
	rg, tail, ok := el.l.elisionServe(report.Ran)
	if !ok {
		return kernel.Result{}, ElideFallbackNoTail, false
	}
	if el.attempts >= maxElideAttempts {
		return kernel.Result{}, ElideFallbackMismatch, false
	}
	el.attempts++
	fp, err := sys.StateFingerprint()
	if err != nil || fp != rg.fp {
		return kernel.Result{}, ElideFallbackMismatch, false
	}
	// Only a fingerprint match pays for the barrier-time audit pass (it
	// captures the whole machine): every audit so far was clean, and
	// this pass must be too — a full run's final audit would otherwise
	// record violations (with end-of-run timestamps) that a spliced
	// result cannot carry.
	if len(audit.Check(audit.Capture(sys.OS))) != 0 {
		return kernel.Result{}, ElideFallbackResidue, false
	}
	// Converged: splice the recorded deltas and terminate. The suffix
	// tallies, cycles and counters are deterministic functions of the
	// matched state, so tail minus rung is exactly what full execution
	// would have added.
	el.elide(report.Ran)
	spliceReport(report, rg.prefix, tail.report)
	k := sys.Kernel()
	k.Clock().Advance(tail.result.Cycles - rg.clock)
	spliceCounters(k, rg.counters, tail.counters)
	res := kernel.Result{Outcome: tail.result.Outcome, Reason: tail.result.Reason, Cycles: k.Now()}
	sys.Shutdown("run elided at quiescence barrier")
	return res, "", true
}

func (el *elider) elide(barrier int) {
	el.served.kind, el.served.barrier = servedElided, barrier
}

func (el *elider) fallback(reason string) {
	el.served.kind, el.served.reason = servedFull, reason
}

// spliceReport adds the pathfinder's suffix tallies (tail minus rung
// prefix) onto the armed run's own prefix tallies, exactly as full
// execution of the suffix would have.
func spliceReport(report *testsuite.Report, prefix, tail testsuite.Report) {
	report.Ran += tail.Ran - prefix.Ran
	report.Passed += tail.Passed - prefix.Passed
	report.Failed += tail.Failed - prefix.Failed
	report.FailedNames = append(report.FailedNames, tail.FailedNames[len(prefix.FailedNames):]...)
}

// spliceCounters adds the pathfinder's suffix counter deltas in sorted
// name order (deterministic first-touch order for the name cache).
func spliceCounters(k *kernel.Kernel, rung, tail map[string]uint64) {
	names := make([]string, 0, len(tail))
	for name := range tail {
		names = append(names, name)
	}
	sort.Strings(names)
	c := k.Counters()
	for _, name := range names {
		if d := tail[name] - rung[name]; d > 0 {
			c.Add(name, d)
		}
	}
}
