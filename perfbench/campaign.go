package main

import (
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/kernel"
	"repro/internal/seep"
)

// campaignWorkload is one of the campaign workloads: the configuration
// of the j-th campaign of a run at a seed, and how many campaigns make
// one cycle over the workload's plans. A run measures whole cycles, and
// the campaigns at j and j+cycle serve the same plan.
type campaignWorkload struct {
	config func(seed uint64, j int) faultinject.CampaignConfig
	cycle  int
}

var (
	warmWorkload     = campaignWorkload{config: warmConfig, cycle: warmPlans}
	ipcNoiseWorkload = campaignWorkload{config: ipcNoiseConfig, cycle: 1}
)

// campaign_warm serves a fixed pool of warmPlans plans in turn, drawn at
// warmPlanSeed and at its splitmix64 mixes. Drawn plans differ in cost by
// about a third between seeds (how many runs hang until the run limit,
// how many tails elide), so a run over plans drawn from its own seed would
// measure the draw as much as the system. The run's seed sets which plan
// of the pool the run starts with.
const (
	warmPlans    = 4
	warmPlanSeed = 42
)

// warmConfig is the j-th campaign of a campaign_warm run at seed: the
// Tables II/III unit of work, served by the snapshot ladder, warm forks
// and tail elision.
func warmConfig(seed uint64, j int) faultinject.CampaignConfig {
	return faultinject.CampaignConfig{
		Policy:         seep.PolicyEnhanced,
		Model:          faultinject.FailStop,
		Seed:           campaignSeed(warmPlanSeed, int((seed+uint64(j))%warmPlans)),
		SamplesPerSite: 3,
		Workers:        1,
	}
}

// ipcNoisePlanSeed fixes the fault plan of campaign_ipcnoise, for the
// reason campaign_warm fixes its pool; the cost of hanging runs is
// campaign_warm's to measure.
const ipcNoisePlanSeed = 42

// ipcNoiseConfig is the j-th campaign of a campaign_ipcnoise run at seed:
// background transport faults on every run, so every run boots cold with
// the IPC reliability layer active. The seed drives the transport fault
// streams over the fixed plan at ipcNoisePlanSeed.
func ipcNoiseConfig(seed uint64, j int) faultinject.CampaignConfig {
	cfg := warmConfig(0, 0)
	cfg.Seed = ipcNoisePlanSeed
	cfg.SamplesPerSite = 1
	cfg.IPC = faultinject.IPCOptions{
		Faults: kernel.IPCFaultConfig{DropBP: 50, DupBP: 50, DelayBP: 50, ReorderBP: 50, CorruptBP: 50},
		Seed:   campaignSeed(seed, j),
	}
	return cfg
}

const (
	// setupReps is how many times the unixbench workload and the traced
	// run repeat their set-up; setup_s is the median.
	setupReps = 9
	// oracleStride selects the runs re-executed on the cold, fully
	// executed oracle path: every oracleStride-th run of a run's
	// campaigns, counted across them.
	oracleStride = 97
)

// campaignSeed derives the j-th seed from seed: seed itself, then
// splitmix64 mixes of it.
func campaignSeed(seed uint64, j int) uint64 {
	if j == 0 {
		return seed
	}
	z := seed + uint64(j)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// campaignSetup profiles the suite and plans the campaign, returning
// how long both took.
func campaignSetup(cfg faultinject.CampaignConfig) ([]faultinject.SiteProfile, []faultinject.Injection, time.Duration, error) {
	start := time.Now()
	prof, err := faultinject.Profile(cfg.Seed)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("profile: %w", err)
	}
	plan := faultinject.PlanCampaign(cfg, prof)
	d := time.Since(start)
	if len(plan) == 0 {
		return nil, nil, 0, fmt.Errorf("campaign plan is empty")
	}
	return prof, plan, d, nil
}

// campaignPass is one whole RunCampaign with its per-run results.
type campaignPass struct {
	results []faultinject.RunResult
	stats   faultinject.PlaneStats
	wall    time.Duration
	mallocs uint64
	bytes   uint64
}

func runCampaignPass(cfg faultinject.CampaignConfig, prof []faultinject.SiteProfile, planned int) campaignPass {
	p := campaignPass{results: make([]faultinject.RunResult, planned)}
	cfg.OnResult = func(i int, rr faultinject.RunResult) { p.results[i] = rr }
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	start := time.Now()
	_, p.stats = faultinject.RunCampaignWithStats(cfg, prof)
	p.wall = time.Since(start)
	runtime.ReadMemStats(&b)
	p.mallocs = b.Mallocs - a.Mallocs
	p.bytes = b.TotalAlloc - a.TotalAlloc
	return p
}

// checkAccounting verifies the serving plane's bookkeeping: every
// planned run served exactly once, and every warm-served run either
// elided or charged exactly one elision fallback reason.
func checkAccounting(st faultinject.PlaneStats, planned int) error {
	if st.Total() != planned {
		return fmt.Errorf("plane served %d runs, plan has %d", st.Total(), planned)
	}
	fallbacks := 0
	for _, n := range st.ElisionFallbacks {
		fallbacks += n
	}
	if warm := st.LadderForks + st.BootForks; st.Elided+fallbacks != warm {
		return fmt.Errorf("elided %d + elision fallbacks %d != warm forks %d", st.Elided, fallbacks, warm)
	}
	return nil
}

// oracleCheck re-executes the runs first, first+oracleStride, ... of the
// plan with RunOneWith — a cold boot that executes the whole suite, with
// the campaign's transport options (none for campaign_warm, where it is
// exactly RunOne) — and returns the indices whose served result differs.
func oracleCheck(ck *checker, cfg faultinject.CampaignConfig, plan []faultinject.Injection, served []faultinject.RunResult, first int) map[int]bool {
	bad := map[int]bool{}
	for i := first; i < len(plan); i += oracleStride {
		want := faultinject.RunOneWith(cfg.Policy, served[i].Seed, plan[i], cfg.IPC)
		if !reflect.DeepEqual(served[i], want) {
			bad[i] = true
			ck.note("seed %d run %d differs from the cold oracle: served %+v, oracle %+v", cfg.Seed, i, served[i], want)
		}
	}
	return bad
}

// checkPass checks one pass of a campaign: its plane accounting, each
// run's injection against the plan, each run's result against ref when
// given (a campaign is deterministic) and the runs the oracle found
// wrong.
func checkPass(ck *checker, label string, plan []faultinject.Injection, p campaignPass, ref []faultinject.RunResult, oracleBad map[int]bool) {
	if err := checkAccounting(p.stats, len(plan)); err != nil {
		ck.ops(len(plan), len(plan), "%s: %v", label, err)
		return
	}
	var bad []int
	for i, rr := range p.results {
		if oracleBad[i] || rr.Injection != plan[i] || (ref != nil && !reflect.DeepEqual(rr, ref[i])) {
			bad = append(bad, i)
		}
	}
	ck.ops(len(plan), len(bad), "%s: runs %v failed their check", label, bad)
}

// runCampaignE2E runs whole campaigns of wl back to back, in whole
// cycles, until their measured time is within half a cycle of the run's
// budget (at least one cycle), and reports the end-to-end metrics over
// all of them. Before each campaign, outside its measured time, the
// benchmark collects the garbage the previous campaign left, so each
// campaign and its set-up start on a clean heap as in a fresh process,
// and times the campaign's set-up. The host's speed is measured right
// before and right after the campaign; the checks run after that.
//
// runs_per_s is one cycle's planned runs over the sum, across the
// cycle's plans, of each plan's median campaign time in reference
// seconds (see calib.go). The median per plan keeps an odd campaign out
// of the figure, and weighting every plan the same keeps the plan mix
// fixed. The same figure in wall-clock seconds is printed beside it.
func runCampaignE2E(wl campaignWorkload, o options, ck *checker, w io.Writer) metrics {
	m := metrics{}
	var (
		setup, speeds   []float64
		peaks           []float64
		walls           = make([][]float64, wl.cycle)
		refs            = make([][]float64, wl.cycle)
		planned         = make([]int, wl.cycle)
		runs            int
		measured        time.Duration
		mallocs, nbytes uint64
		rssReset        = true
	)
	for j := 0; ; j++ {
		if cycles := j / wl.cycle; j%wl.cycle == 0 && cycles > 0 &&
			measured+measured/time.Duration(2*cycles) >= o.seconds {
			break
		}
		cfg := wl.config(o.seed, j)
		runtime.GC()
		prof, plan, d, err := campaignSetup(cfg)
		if err != nil {
			ck.ops(1, 1, "seed %d: %v", cfg.Seed, err)
			return m
		}
		before := hostSpeed()
		rssReset = resetPeakRSS() && rssReset
		p := runCampaignPass(cfg, prof, len(plan))
		peaks = append(peaks, peakRSSMiB())
		after := hostSpeed()
		speed := (before + after) / 2
		speeds = append(speeds, before, after)
		setup = append(setup, refSeconds(d, before))
		slot := j % wl.cycle
		walls[slot] = append(walls[slot], p.wall.Seconds())
		refs[slot] = append(refs[slot], refSeconds(p.wall, speed))
		planned[slot] = len(plan)
		fmt.Fprintf(w, "campaign %d (plan seed %d): %d runs in %.3f s, %.1f runs/s; host speed %.0f/s, %.1f runs per reference s; set-up %.4f s\n",
			j, cfg.Seed, len(plan), p.wall.Seconds(), float64(len(plan))/p.wall.Seconds(), speed, float64(len(plan))/refSeconds(p.wall, speed), d.Seconds())
		measured += p.wall
		mallocs += p.mallocs
		nbytes += p.bytes
		first := (oracleStride - runs%oracleStride) % oracleStride
		runs += len(plan)
		oracleBad := oracleCheck(ck, cfg, plan, p.results, first)
		checkPass(ck, fmt.Sprintf("campaign %d (seed %d)", j, cfg.Seed), plan, p, nil, oracleBad)
	}
	cycleRate := func(times [][]float64) float64 {
		var cycleRuns int
		var cycleTime float64
		for slot := range times {
			cycleRuns += planned[slot]
			cycleTime += median(times[slot])
		}
		return float64(cycleRuns) / cycleTime
	}
	fmt.Fprintf(w, "wall clock: runs_per_s %g; host speed median %.0f/s (reference %d/s)\n", cycleRate(walls), median(speeds), calRefPerS)
	m.set("runs_per_s", cycleRate(refs), "1/s")
	m.set("setup_s", median(setup), "s")
	m.set("allocs_per_op", float64(mallocs)/float64(runs), "count")
	m.set("alloc_kib_per_op", float64(nbytes)/float64(runs)/1024, "KiB")
	if !rssReset {
		fmt.Fprintln(w, peakRSSNote)
	}
	m.set("peak_rss_mib", median(peaks), "MiB")
	return m
}

// resetPeakRSS returns the heap's free pages to the OS and resets the
// kernel's record of the process's peak resident set to its current
// one, so that peakRSSMiB covers only what runs after it: the measured
// work, not the calibration loop (see calib.go) or the checks between.
// It reports whether the kernel took the reset.
func resetPeakRSS() bool {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMiB is the process's peak resident set since the last
// resetPeakRSS, or over its whole life where the reset failed.
func peakRSSMiB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(v, "kB")), 64); err == nil {
					return kib / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// peakRSSNote is printed when the kernel refused to reset the peak
// resident set.
const peakRSSNote = "peak_rss_mib covers the whole process: the kernel refused to reset its peak resident set"

// Serving decisions a traced run is tagged with.
const (
	decElided = "elided"
	decFull   = "full"
	decCold   = "cold"
)

// servingDecision classifies one run from the plane statistics before
// and after it.
func servingDecision(before, after faultinject.PlaneStats) string {
	switch {
	case after.ColdBoots > before.ColdBoots:
		return decCold
	case after.Elided > before.Elided:
		return decElided
	default:
		return decFull
	}
}

// campaignLedger accumulates the traced passes of one campaign.
type campaignLedger struct {
	name      string
	cfg       faultinject.CampaignConfig
	prof      []faultinject.SiteProfile
	plan      []faultinject.Injection
	profileMS []float64
	// untraced and traced are runs/s of alternating untraced
	// (RunCampaign) and traced (ArmedRunner) passes.
	untraced, traced []float64
	// passMS is the traced passes' wall time.
	passMS []float64
	// runMS holds every traced run's time, also split by decision.
	runMS      []float64
	byDecision map[string][]float64
	stats      faultinject.PlaneStats
}

func newCampaignLedger(tr *tracer, name string, cfg faultinject.CampaignConfig, ck *checker) *campaignLedger {
	l := &campaignLedger{name: name, cfg: cfg, byDecision: map[string][]float64{}}
	// The profile is the set-up of both campaign workloads; it is timed
	// setupReps times for faultinject.profile_ms.
	for i := 0; i < setupReps; i++ {
		var err error
		d := tr.do("faultinject.profile", func() { l.prof, err = faultinject.Profile(cfg.Seed) })
		if err != nil {
			ck.ops(1, 1, "%s: profile: %v", name, err)
			return nil
		}
		l.profileMS = append(l.profileMS, ms(d))
	}
	tr.do("faultinject.plan", func() { l.plan = faultinject.PlanCampaign(cfg, l.prof) })
	if len(l.plan) == 0 {
		ck.ops(1, 1, "%s: campaign plan is empty", name)
		return nil
	}
	return l
}

// pass runs the campaign once untraced through RunCampaign, then once
// traced through ArmedRunner — the same serving path at Workers: 1 —
// with a span around every run, and checks the traced results against
// the untraced ones.
func (l *campaignLedger) pass(tr *tracer, ck *checker) {
	n := len(l.plan)
	ref := runCampaignPass(l.cfg, l.prof, n)
	checkPass(ck, l.name+" untraced", l.plan, ref, nil, nil)
	l.untraced = append(l.untraced, float64(n)/ref.wall.Seconds())

	results := make([]faultinject.RunResult, n)
	id := tr.begin("faultinject.campaign")
	start := time.Now()
	var runner *faultinject.ArmedRunner
	tr.do("faultinject.plane", func() { runner = faultinject.NewArmedRunner(l.cfg, l.plan) })
	prev := runner.Stats()
	for i, inj := range l.plan {
		sid := tr.begin("faultinject.run")
		results[i] = runner.Run(ref.results[i].Seed, inj)
		d := tr.end(sid)
		cur := runner.Stats()
		dec := servingDecision(prev, cur)
		tr.tag(sid, dec)
		prev = cur
		l.runMS = append(l.runMS, ms(d))
		l.byDecision[dec] = append(l.byDecision[dec], ms(d))
	}
	tr.do("faultinject.close", runner.Close)
	wall := time.Since(start)
	tr.end(id)
	l.passMS = append(l.passMS, ms(wall))
	l.traced = append(l.traced, float64(n)/wall.Seconds())
	l.stats = prev
	checkPass(ck, l.name+" traced", l.plan, campaignPass{results: results, stats: prev}, ref.results, nil)
}

// decompose predicts the traced campaign's host time from its parts —
// the profile plus, per serving decision, the number of runs times the
// decision's typical (median or mean) run time — and returns the
// predicted and measured milliseconds with the formula.
func (l *campaignLedger) decompose(typical func([]float64) float64) (predicted, measured float64, formula string) {
	profile := median(l.profileMS)
	predicted = profile
	formula = fmt.Sprintf("profile %.2f ms", profile)
	decs := make([]string, 0, len(l.byDecision))
	for d := range l.byDecision {
		decs = append(decs, d)
	}
	sort.Strings(decs)
	passes := float64(len(l.passMS))
	for _, d := range decs {
		runs := float64(len(l.byDecision[d])) / passes
		med := typical(l.byDecision[d])
		predicted += runs * med
		formula += fmt.Sprintf(" + %s %.0f x %.3f ms", d, runs, med)
	}
	return predicted, profile + median(l.passMS), formula
}
