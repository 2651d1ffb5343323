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
