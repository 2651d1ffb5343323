package faultinject

import (
	"repro/internal/seep"
	"repro/internal/sim"
)

// Multi-fault campaigns go beyond the paper's one-failure-at-a-time
// evaluation: each boot is armed with N faults, including faults
// correlated with an earlier recovery and faults placed inside the
// recovery path itself. They exercise the cascade-tolerance sequencer
// (crash queueing, restart backoff, escalation, quarantine) that
// single-fault campaigns deliberately pin off.

// MultiInjection is one fault of a multi-fault plan.
type MultiInjection struct {
	Injection
	// Correlated delays arming until the machine has performed at least
	// one recovery: the fault manifests in the post-recovery window,
	// when a second failure is most likely in practice (recovery shifts
	// load and exercises cold paths).
	Correlated bool
	// DuringRecovery plants the fault inside the restart sequence
	// itself: it fires at the Occurrence-th restart attempt of any
	// component, crashing the recovery path (Server/Site are unused).
	DuringRecovery bool
	// Persistent re-fires the fault on every execution of the site
	// after it first triggers — a deterministic software bug that
	// restarting cannot clear. It is what drives a component into the
	// crash-storm budget and quarantine.
	Persistent bool
}

// MultiRunResult is the outcome of one multi-fault run.
type MultiRunResult struct {
	Injections  []MultiInjection
	Outcome     Outcome
	Triggered   int
	TestsFailed int
	Recoveries  int
	Quarantines int
	Reason      string
	// Seed is the per-run seed; an inconsistent run replays exactly
	// from it.
	Seed uint64
	// Consistent reports whether every audit pass found the
	// cross-server invariants intact; Violations lists the failures.
	Consistent bool
	Violations []string
}

// RunMultiWith boots a fresh machine with the cascade sequencer
// enabled, arms every injection, runs the suite and classifies the
// outcome, with transport fault options applied. Transport
// interposition stays off unless ipc enables it or one of the
// injections is an IPC fault.
func RunMultiWith(policy seep.Policy, seed uint64, injs []MultiInjection, ipc IPCOptions) MultiRunResult {
	return multiShape.cold(Exec{}, policy, seed, injs, ipc)
}

// MultiCampaignConfig parameterizes a multi-fault campaign.
type MultiCampaignConfig struct {
	Policy seep.Policy
	Model  Model
	// Faults is the number of faults armed per boot (>= 2).
	Faults int
	// Runs is the number of boots.
	Runs int
	Seed uint64
	// Workers bounds concurrent boots (0 = one per CPU, 1 = serial);
	// results are bit-identical for any worker count.
	Workers int
	// Exec selects the serving path and the oracles, exactly as in
	// CampaignConfig.
	Exec Exec
	// IPC configures transport fault interposition for every run of the
	// campaign (zero value: off; forced on when a plan arms IPC
	// faults).
	IPC IPCOptions
	// Journal, when set, makes the campaign crash-tolerant exactly as
	// in CampaignConfig: journaled runs are skipped, new ones appended,
	// and resumed aggregates are bit-identical to uninterrupted ones.
	Journal *Journal
	// OnResult observes every run result in plan order (including
	// journal-served ones); used to emit replayable traces.
	OnResult func(index int, rr MultiRunResult)
	// OnServe observes every run's serving decision in plan order
	// alongside OnResult, exactly as in CampaignConfig.
	OnServe func(index int, decision string)
}

// MultiCampaignResult aggregates a multi-fault campaign: one row of the
// cascade survivability table.
type MultiCampaignResult struct {
	Policy seep.Policy
	Model  Model
	Faults int
	Runs   int
	Counts map[Outcome]int
	// Untriggered counts runs where no armed fault fired at all; they
	// are excluded from Runs and Counts.
	Untriggered int
	// Consistent counts triggered runs whose every audit pass found the
	// cross-server invariants intact; InconsistentSeeds lists the
	// per-run seeds of the others for exact replay.
	Consistent        int
	InconsistentSeeds []uint64
}

// Percent reports the share of runs with the given outcome.
func (c MultiCampaignResult) Percent(o Outcome) float64 {
	if c.Runs == 0 {
		return 0
	}
	return 100 * float64(c.Counts[o]) / float64(c.Runs)
}

// ConsistentPercent reports the share of runs the auditor classified
// consistent.
func (c MultiCampaignResult) ConsistentPercent() float64 {
	if c.Runs == 0 {
		return 0
	}
	return 100 * float64(c.Consistent) / float64(c.Runs)
}

// PlanMultiCampaign derives the per-run injection lists from a profile.
// The first fault of each run is an ordinary injection; each further
// fault is drawn as plain, correlated, or during-recovery with equal
// probability, so every campaign mixes independent double faults,
// recovery-window faults and faults in the recovery path itself.
func PlanMultiCampaign(cfg MultiCampaignConfig, profile []SiteProfile) [][]MultiInjection {
	faults := cfg.Faults
	if faults < 2 {
		faults = 2
	}
	runs := cfg.Runs
	if runs <= 0 {
		runs = 20
	}
	var sites []SiteProfile
	for _, sp := range profile {
		if sp.Candidate() {
			sites = append(sites, sp)
		}
	}
	if len(sites) == 0 {
		return nil
	}
	rng := sim.NewRNG(cfg.Seed ^ 0x9E3779B9)
	plans := make([][]MultiInjection, 0, runs)
	for r := 0; r < runs; r++ {
		plan := make([]MultiInjection, 0, faults)
		for f := 0; f < faults; f++ {
			sp := sites[rng.Intn(len(sites))]
			reach := sp.Total - sp.Boot
			mi := MultiInjection{Injection: Injection{
				Server:     sp.Server,
				Site:       sp.Site,
				Occurrence: sp.Boot + 1 + rng.Intn(reach),
				Type:       pickType(cfg.Model, rng),
			}}
			if f > 0 {
				switch rng.Intn(4) {
				case 1:
					mi.Correlated = true
					// Correlated faults count occurrences from the first
					// recovery onward; keep the trigger close so the
					// fault lands inside the post-recovery window.
					mi.Occurrence = 1 + rng.Intn(3)
				case 2:
					mi.DuringRecovery = true
					// Fire at one of the first restart attempts.
					mi.Occurrence = 1 + rng.Intn(2)
					// Only fail-stop semantics make sense inside the
					// restart path.
					mi.Type = FaultCrash
				case 3:
					// A deterministic bug: the crash re-fires after every
					// restart, driving the component into quarantine.
					mi.Persistent = true
					mi.Type = FaultCrash
				}
			}
			plan = append(plan, mi)
		}
		plans = append(plans, plan)
	}
	return plans
}

// RunMultiCampaign executes the whole multi-fault campaign. As in
// RunCampaign, one machine is booted and captured per configuration
// class and every run forks it, bit-identically to cold boots.
func RunMultiCampaign(cfg MultiCampaignConfig, profile []SiteProfile) MultiCampaignResult {
	result, _ := RunMultiCampaignWithStats(cfg, profile)
	return result
}

// RunMultiCampaignWithStats is RunMultiCampaign plus the warm-plane
// serving statistics. The campaign result is identical to
// RunMultiCampaign's.
func RunMultiCampaignWithStats(cfg MultiCampaignConfig, profile []SiteProfile) (MultiCampaignResult, PlaneStats) {
	plans := PlanMultiCampaign(cfg, profile)
	r := newRunner(multiShape, cfg.Policy, cfg.Seed, cfg.Exec)
	for _, plan := range plans {
		r.open(cfg.IPC.normalized(plansArmIPC(plan)))
	}
	defer r.close()
	f := fanout[MultiRunResult]{cfg.Workers, cfg.Journal, (*Journal).LookupMulti, (*Journal).RecordMulti, cfg.OnServe, cfg.OnResult}
	results, stats := f.run(len(plans), func(i int) (MultiRunResult, serving) {
		return r.serve(cfg.Seed+uint64(i)*104729, plans[i], cfg.IPC)
	})
	result := MultiCampaignResult{
		Policy: cfg.Policy,
		Model:  cfg.Model,
		Faults: cfg.Faults,
		Counts: make(map[Outcome]int),
	}
	if result.Faults < 2 {
		result.Faults = 2
	}
	for _, rr := range results {
		if rr.Triggered == 0 {
			result.Untriggered++
			continue
		}
		result.Runs++
		result.Counts[rr.Outcome]++
		if rr.Consistent {
			result.Consistent++
		} else {
			result.InconsistentSeeds = append(result.InconsistentSeeds, rr.Seed)
		}
	}
	return result, stats
}
