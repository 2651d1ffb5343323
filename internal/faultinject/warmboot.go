package faultinject

// Warm-boot campaign runs. Booting the machine and installing the ~96
// suite binaries dominates campaign run time, yet the boot trace of a
// fault-free machine is seed-independent: the kernel RNG is never drawn
// before the first fault and the IPC plane draws nothing while no rates
// are set. Campaigns therefore boot ONE pathfinder machine per (policy,
// configuration class) and fork per-run copies from its snapshot ladder
// (see ladder.go): armed runs start from the deepest cached mid-suite
// rung strictly before their trigger, skipping the shared fault-free
// prefix entirely, with outcomes bit-identical to cold boots.
//
// Cold boots remain available as the equivalence oracle: set
// Exec.ColdBoot (the CLIs' -coldboot flag).
//
// Runs whose transport carries background fault rates are never forked:
// their boot trace consumes the per-run fault stream, so each needs its
// own cold boot. The reliability layer alone (timeouts/retries, zero
// rates) is deterministic during a fault-free boot and forks fine.

import (
	"repro/internal/boot"
	"repro/internal/core"
	"repro/internal/seep"
	"repro/internal/testsuite"
	"repro/internal/usr"
)

// Exec selects how a campaign executes its runs. The zero value is the
// default serving path: ladder forks, tail elision and the default
// snapshot budget on the fast scheduler and checkpoint paths. Every
// other value swaps in an equivalence oracle or moves a memory/speed
// trade-off; campaign results are bit-identical for all of them, only
// cost and the serving split change.
type Exec struct {
	// ColdBoot boots every run from scratch instead of forking the
	// snapshot ladder: the warm-fork oracle.
	ColdBoot bool
	// NoElide executes every warm-served run's suite suffix in full
	// instead of splicing the pathfinder tail: the elision oracle.
	NoElide bool
	// SnapshotCacheBytes budgets the ladder's snapshot cache. Zero
	// selects DefaultSnapshotCacheBytes; negative disables the ladder,
	// keeping only the post-install boot snapshot.
	SnapshotCacheBytes int64
	// LegacyScheduler boots every machine on the kernel's legacy O(n)
	// ready scan (core.Config.LegacyScheduler).
	LegacyScheduler bool
}

// DefaultSnapshotCacheBytes is the snapshot-ladder budget used when
// Exec.SnapshotCacheBytes is zero.
const DefaultSnapshotCacheBytes int64 = 256 << 20

// snapshotBudget resolves SnapshotCacheBytes against the default.
func (e Exec) snapshotBudget() int64 {
	if e.SnapshotCacheBytes != 0 {
		return e.SnapshotCacheBytes
	}
	return DefaultSnapshotCacheBytes
}

// machine stamps the machine-level oracle switch into a run's Config.
func (e Exec) machine(cfg core.Config) core.Config {
	cfg.LegacyScheduler = e.LegacyScheduler
	return cfg
}

// Test hooks: the runners fork and build ladders through these
// indirections so the fallback paths (fork failure, capture failure)
// can be exercised deterministically.
var (
	forkSnapshot = func(s *boot.Snapshot, p boot.ForkParams, prog usr.Program) (*boot.System, error) {
		return s.Fork(p, prog)
	}
	buildLadder = newLadder
)

// singleFaultConfig is the pinned configuration of single-fault runs;
// the pathfinder machine must boot with exactly this shape. Single-fault
// campaigns reproduce the paper's setup, which assumes one failure at a
// time: the cascade-tolerance sequencer (backoff, escalation,
// quarantine) is pinned off so Tables II/III keep the paper's outcome
// semantics. Multi-fault campaigns run with the sequencer enabled.
func singleFaultConfig(policy seep.Policy, seed uint64, ipc IPCOptions) core.Config {
	return ipc.apply(core.Config{
		Policy:             policy,
		Seed:               seed,
		DisableQuarantine:  true,
		RestartBackoffBase: -1,
		RecoveryDecay:      -1,
		MaxRestartAttempts: 1,
	}, seed)
}

// multiFaultConfig is the configuration of multi-fault and background
// runs: the cascade sequencer enabled.
func multiFaultConfig(policy seep.Policy, seed uint64, ipc IPCOptions) core.Config {
	return ipc.apply(core.Config{Policy: policy, Seed: seed}, seed)
}

// suiteOptions is the boot shape of every campaign machine: the
// prototype suite's registry, heartbeats on.
func suiteOptions(cfg core.Config) boot.Options {
	reg := usr.NewRegistry()
	testsuite.Register(reg)
	return boot.Options{Config: cfg, Registry: reg, Heartbeats: true}
}

// bootSuite cold-boots a campaign machine whose init runs the suite,
// tallying into report.
func bootSuite(cfg core.Config, report *testsuite.Report) *boot.System {
	return boot.Boot(suiteOptions(cfg), testsuite.RunnerInit(report))
}

// forkParams derives the per-run seed identity, matching what
// IPCOptions.apply stamps into a cold boot's Config.
func forkParams(seed uint64, ipc IPCOptions) boot.ForkParams {
	p := boot.ForkParams{Seed: seed}
	if ipc.Enabled() {
		p.IPCFaultSeed = ipc.Seed ^ seed
	}
	return p
}

// classPlane is the warm plane of one configuration class: its ladder,
// or — when the class cannot be served warm — the fallback reason every
// run of the class is charged with.
type classPlane struct {
	ladder *ladder
	reason string
}

// newClassPlane builds the plane for one configuration class; cfg
// already carries exec's machine-level switches.
func newClassPlane(cfg core.Config, ipc IPCOptions, exec Exec) *classPlane {
	switch {
	case exec.ColdBoot:
		return &classPlane{reason: FallbackColdBootPinned}
	case ipc.Faults.Enabled():
		return &classPlane{reason: FallbackBackgroundRates}
	}
	if l := buildLadder(cfg, exec); l != nil {
		return &classPlane{ladder: l}
	}
	return &classPlane{reason: FallbackNoSnapshot}
}

func (pl *classPlane) close() {
	if pl != nil && pl.ladder != nil {
		pl.ladder.Close()
	}
}

// campaignRunner dispatches campaign runs onto ladder forks when a
// plane for the run's configuration class exists, and cold boots
// otherwise. Serving is concurrency-safe: the ladder walk is locked,
// forks are read-only on snapshots.
type campaignRunner struct {
	policy seep.Policy
	ipc    IPCOptions
	exec   Exec
	// planes is keyed by armsIPC (whether the run's injection set arms a
	// transport fault, which forces the reliability layer on).
	planes map[bool]*classPlane
	stats  statsCollector
}

// close tears down the pathfinder machines. Snapshots and recorded
// rungs stay valid; call it when the campaign is done forking.
func (r *campaignRunner) close() {
	for _, pl := range r.planes {
		pl.close()
	}
}

// newRunner prepares one plane per configuration class in classes,
// built by config from the class's normalized transport options.
func newRunner(policy seep.Policy, seed uint64, ipc IPCOptions, exec Exec, classes map[bool]bool,
	config func(seep.Policy, uint64, IPCOptions) core.Config) *campaignRunner {
	r := &campaignRunner{policy: policy, ipc: ipc, exec: exec, planes: make(map[bool]*classPlane)}
	for armsIPC := range classes {
		norm := ipc.normalized(armsIPC)
		r.planes[armsIPC] = newClassPlane(exec.machine(config(policy, seed, norm)), norm, exec)
	}
	return r
}

// newSingleRunner prepares ladders for a single-fault campaign: one per
// reliability class present in the plan.
func newSingleRunner(cfg CampaignConfig, plan []Injection) *campaignRunner {
	classes := make(map[bool]bool)
	for _, inj := range plan {
		classes[inj.Type.IPC()] = true
	}
	return newRunner(cfg.Policy, cfg.Seed, cfg.IPC, cfg.Exec, classes, singleFaultConfig)
}

// coldOne boots one single-fault run cold, charged to reason.
func (r *campaignRunner) coldOne(seed uint64, inj Injection, reason string) (RunResult, string) {
	r.stats.cold(reason)
	return runOneCold(r.exec, r.policy, seed, inj, r.ipc), ServingCold(reason)
}

// runOne executes one single-fault run, warm when possible, and
// returns the result plus the serving decision (see ServingCold and
// friends in elide.go).
func (r *campaignRunner) runOne(seed uint64, inj Injection) (RunResult, string) {
	ipc := r.ipc.normalized(inj.Type.IPC())
	pl := r.planes[inj.Type.IPC()]
	if pl.ladder == nil {
		return r.coldOne(seed, inj, pl.reason)
	}
	key := siteKey{inj.Server, inj.Site}
	idx, rg, snap, ok := pl.ladder.serve([]siteKey{key}, []int{inj.Occurrence})
	if !ok {
		return r.coldOne(seed, inj, FallbackPreBarrier)
	}
	var report testsuite.Report
	sys, err := forkSnapshot(snap, forkParams(seed, ipc), testsuite.RunnerResumeFrom(&report, rg.prefix))
	if err != nil {
		return r.coldOne(seed, inj, FallbackForkFailed)
	}
	r.stats.fork(idx)
	warm := inj
	warm.Occurrence = inj.Occurrence - rg.counts[key]
	el := newElider(pl.ladder, &r.stats)
	rr := finishRunOne(sys, &report, inj, seed, warm, el)
	return rr, ServingRung(idx, el.decision)
}

// newMultiRunner prepares ladders for a multi-fault campaign.
func newMultiRunner(cfg MultiCampaignConfig, plans [][]MultiInjection) *campaignRunner {
	classes := make(map[bool]bool)
	for _, plan := range plans {
		classes[plansArmIPC(plan)] = true
	}
	return newRunner(cfg.Policy, cfg.Seed, cfg.IPC, cfg.Exec, classes, multiFaultConfig)
}

func plansArmIPC(injs []MultiInjection) bool {
	for _, inj := range injs {
		if inj.Type.IPC() {
			return true
		}
	}
	return false
}

// coldMulti boots one multi-fault run cold, charged to reason.
func (r *campaignRunner) coldMulti(seed uint64, injs []MultiInjection, reason string) (MultiRunResult, string) {
	r.stats.cold(reason)
	return runMultiCold(r.exec, r.policy, seed, injs, r.ipc), ServingCold(reason)
}

// runMulti executes one multi-fault run, warm when possible. The
// serving rung must precede every plain trigger; correlated and
// during-recovery faults count from the first recovery or restart —
// always after any plain trigger, hence after the rung — so their
// occurrences are never translated.
func (r *campaignRunner) runMulti(seed uint64, injs []MultiInjection) (MultiRunResult, string) {
	armsIPC := plansArmIPC(injs)
	ipc := r.ipc.normalized(armsIPC)
	pl := r.planes[armsIPC]
	if pl.ladder == nil {
		return r.coldMulti(seed, injs, pl.reason)
	}
	var keys []siteKey
	var occs []int
	for _, inj := range injs {
		if inj.Correlated || inj.DuringRecovery {
			continue
		}
		keys = append(keys, siteKey{inj.Server, inj.Site})
		occs = append(occs, inj.Occurrence)
	}
	idx, rg, snap, ok := pl.ladder.serve(keys, occs)
	if !ok {
		return r.coldMulti(seed, injs, FallbackPreBarrier)
	}
	warm := make([]MultiInjection, len(injs))
	for i, inj := range injs {
		warm[i] = inj
		if inj.Correlated || inj.DuringRecovery {
			continue
		}
		warm[i].Occurrence = inj.Occurrence - rg.counts[siteKey{inj.Server, inj.Site}]
	}
	var report testsuite.Report
	sys, err := forkSnapshot(snap, forkParams(seed, ipc), testsuite.RunnerResumeFrom(&report, rg.prefix))
	if err != nil {
		return r.coldMulti(seed, injs, FallbackForkFailed)
	}
	r.stats.fork(idx)
	el := newElider(pl.ladder, &r.stats)
	rr := finishRunMulti(sys, &report, injs, seed, warm, el)
	return rr, ServingRung(idx, el.decision)
}

// backgroundRunner serves IPC-sweep runs: forkable only for rate points
// with zero basis points (the reliability-off, fault-off baseline row).
// Fault-free runs have no trigger to stay ahead of, so they fork from
// the DEEPEST cached rung and replay only the suite tail.
type backgroundRunner struct {
	policy seep.Policy
	exec   Exec
	plane  *classPlane
	stats  statsCollector
}

func (r *backgroundRunner) close() { r.plane.close() }

// newBackgroundRunner builds the plain-configuration ladder only when
// the sweep contains a zero-rate point that can use it.
func newBackgroundRunner(policy seep.Policy, seed uint64, ratesBP []int, exec Exec) *backgroundRunner {
	r := &backgroundRunner{policy: policy, exec: exec}
	hasZero := false
	for _, bp := range ratesBP {
		if bp == 0 {
			hasZero = true
		}
	}
	if !hasZero {
		// Every point carries rates; the plane is never consulted.
		r.plane = &classPlane{reason: FallbackBackgroundRates}
		return r
	}
	r.plane = newClassPlane(exec.machine(multiFaultConfig(policy, seed, IPCOptions{})), IPCOptions{}, exec)
	return r
}

// cold boots one background run cold, charged to reason.
func (r *backgroundRunner) cold(seed uint64, ipc IPCOptions, reason string) RunResult {
	r.stats.cold(reason)
	return runBackgroundCold(r.exec, r.policy, seed, ipc)
}

// runBackground executes one background-rate run, warm when the options
// leave the transport untouched.
func (r *backgroundRunner) runBackground(seed uint64, ipc IPCOptions) RunResult {
	norm := ipc.normalized(false)
	if norm.Enabled() {
		return r.cold(seed, ipc, FallbackBackgroundRates)
	}
	if r.plane.ladder == nil {
		return r.cold(seed, ipc, r.plane.reason)
	}
	idx, rg, snap := r.plane.ladder.serveDeepest()
	var report testsuite.Report
	sys, err := forkSnapshot(snap, forkParams(seed, norm), testsuite.RunnerResumeFrom(&report, rg.prefix))
	if err != nil {
		return r.cold(seed, ipc, FallbackForkFailed)
	}
	r.stats.fork(idx)
	el := newElider(r.plane.ladder, &r.stats)
	return finishRunBackground(sys, &report, norm, seed, el)
}
