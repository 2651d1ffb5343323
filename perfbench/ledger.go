package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/faultinject"
	"repro/internal/unixbench"
)

// elisionReasons are the five named reasons a warm-served run executes
// its suffix in full.
var elisionReasons = []string{
	faultinject.ElideFallbackPinned,
	faultinject.ElideFallbackNoTail,
	faultinject.ElideFallbackUntriggered,
	faultinject.ElideFallbackMismatch,
	faultinject.ElideFallbackResidue,
}

// unixbenchLedgerPasses is how many pairs of untraced and traced passes
// every traced run makes of the unixbench workload (a pass is short).
const unixbenchLedgerPasses = 5

// runLedger is the traced run. Every traced run measures every layer
// and makes at least one untraced and one traced pass of all three
// workloads, so it reports the whole per-layer ledger whichever
// workload is selected; the selected workload then repeats its passes
// until the run's time budget is spent, for more samples.
func runLedger(o options, tr *tracer, ck *checker, w io.Writer) metrics {
	start := time.Now()
	lc := measureLayers(tr, o.seed, ck)
	warm := newCampaignLedger(tr, wlCampaignWarm, warmConfig(o.seed, 0), ck)
	noise := newCampaignLedger(tr, wlCampaignIPCNoise, ipcNoiseConfig(o.seed, 0), ck)
	ub := newUnixbenchLedger(o.seed, ck)
	m := metrics{}
	if warm == nil || noise == nil || ub == nil {
		return m
	}
	warm.pass(tr, ck)
	noise.pass(tr, ck)
	for i := 0; i < unixbenchLedgerPasses; i++ {
		ub.pass(tr, ck)
	}
	for time.Since(start) < o.seconds {
		switch o.workload {
		case wlCampaignWarm:
			warm.pass(tr, ck)
		case wlCampaignIPCNoise:
			noise.pass(tr, ck)
		case wlUnixbench:
			ub.pass(tr, ck)
		}
	}

	lc.emit(m)
	m.set("faultinject.profile_ms", median(append(append([]float64(nil), warm.profileMS...), noise.profileMS...)), "ms")
	m.set("faultinject.run_ms.p50", median(warm.runMS), "ms")
	m.set("faultinject.run_ms.p95", quantile(warm.runMS, 0.95), "ms")
	m.set("faultinject.run_ms.elided.p50", median(warm.byDecision[decElided]), "ms")
	m.set("faultinject.run_ms.full.p50", median(warm.byDecision[decFull]), "ms")
	m.set("faultinject.run_ms.cold.p50", median(noise.byDecision[decCold]), "ms")
	st := warm.stats
	m.set("faultinject.ladder_fork_frac", float64(st.LadderForks)/float64(st.Total()), "frac")
	m.set("faultinject.cold_frac", float64(st.ColdBoots)/float64(st.Total()), "frac")
	m.set("faultinject.elided_frac", float64(st.Elided)/float64(st.LadderForks+st.BootForks), "frac")
	for _, r := range elisionReasons {
		m.set("faultinject.elision_fallback."+r, float64(st.ElisionFallbacks[r]), "count")
	}
	for _, name := range unixbench.Names() {
		m.set("unixbench."+name+".host_ms", median(ub.programMS[name]), "ms")
	}
	m.set("unixbench.sim_mcycles_per_s", median(ub.simMcyclesPerS), "Mcycle/s")
	t := ub.totals()
	progs := float64(len(ub.last.progs))
	m.set("kernel.dispatches_per_op", t.disp/progs, "count")
	m.set("kernel.msg_hops_per_op", t.hops/progs, "count")
	m.set("kernel.procs_per_op", t.procs/progs, "count")
	m.set("memlog.stores_per_op", t.stores/progs, "count")
	m.set("memlog.logged_frac", t.logged/t.stores, "frac")

	fmt.Fprintln(w, "decomposition (predicted host time = sum of layer unit cost x count; residual = measured - predicted):")
	for _, l := range []*campaignLedger{warm, noise} {
		predicted, measured, formula := l.decompose(median)
		residual(w, m, l.name, formula, predicted, measured)
		predicted, _, _ = l.decompose(mean)
		fmt.Fprintf(w, "    with per-decision means instead of medians: %.2f ms predicted; residual %.4f\n",
			predicted, (measured-predicted)/measured)
	}
	predicted := t.disp*lc.dispatchNS + t.hops*lc.hopNS + t.logged*lc.storeLoggedNS +
		(t.stores-t.logged)*lc.storeClosedNS + t.procs*lc.procSelfNS
	formula := fmt.Sprintf("dispatch %.0f x %.1f ns + hop %.0f x %.1f ns + logged store %.0f x %.1f ns + closed store %.0f x %.1f ns + process %.0f x %.1f ns",
		t.disp, lc.dispatchNS, t.hops, lc.hopNS, t.logged, lc.storeLoggedNS, t.stores-t.logged, lc.storeClosedNS, t.procs, lc.procSelfNS)
	residual(w, m, wlUnixbench, formula, predicted/1e6, median(ub.passMS))

	fmt.Fprintln(w, "tracing overhead (runs/s untraced vs traced, medians):")
	overhead(w, m, wlCampaignWarm, warm.untraced, warm.traced)
	overhead(w, m, wlCampaignIPCNoise, noise.untraced, noise.traced)
	overhead(w, m, wlUnixbench, ub.untraced, ub.traced)
	return m
}

// residual prints one workload's decomposition and records its residual
// as a share of the measured time.
func residual(w io.Writer, m metrics, workload, formula string, predicted, measured float64) {
	frac := (measured - predicted) / measured
	fmt.Fprintf(w, "  %s: %s = %.2f ms predicted; %.2f ms measured; residual %.2f ms (%.4f)\n",
		workload, formula, predicted, measured, measured-predicted, frac)
	m.set(workload+".residual_frac", frac, "frac")
}

// overhead prints and records how much slower the traced passes ran.
func overhead(w io.Writer, m metrics, workload string, untraced, traced []float64) {
	u, t := median(untraced), median(traced)
	frac := u/t - 1
	fmt.Fprintf(w, "  %s: untraced %.3f, traced %.3f over %d pass(es); overhead %.4f\n", workload, u, t, len(traced), frac)
	m.set(workload+".trace_overhead_frac", frac, "frac")
}
