package faultinject

import (
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/seep"
)

// IPCOptions configures transport fault interposition and the
// end-to-end reliability layer for campaign runs. The zero value keeps
// both off, reproducing the historical (perfectly reliable) transport.
type IPCOptions struct {
	// Faults are the background fault rates, in basis points per
	// transmission.
	Faults kernel.IPCFaultConfig
	// Seed perturbs the per-run fault stream; each run draws from
	// Seed ^ runSeed, so campaigns stay deterministic while every boot
	// sees different fault placements.
	Seed uint64
	// TimeoutCycles and RetryMax parameterize the sender-side
	// reliability layer (zero TimeoutCycles: layer off; zero RetryMax:
	// kernel default budget).
	TimeoutCycles int64
	RetryMax      int
}

// Enabled reports whether the options change the transport at all.
func (o IPCOptions) Enabled() bool { return o.Faults.Enabled() || o.TimeoutCycles > 0 }

// normalized forces the reliability layer on whenever a transport fault
// can fire — from background rates or from an armed IPC injection. A
// dropped request with no retransmission would block its sender
// forever and turn every such run into a spurious hang.
func (o IPCOptions) normalized(armsIPC bool) IPCOptions {
	if (o.Faults.Enabled() || armsIPC) && o.TimeoutCycles <= 0 {
		o.TimeoutCycles = core.DefaultIPCTimeoutCycles
	}
	return o
}

// apply copies the options into a run's Config using the run seed.
func (o IPCOptions) apply(cfg core.Config, runSeed uint64) core.Config {
	if !o.Enabled() {
		return cfg
	}
	cfg.IPCFaults = o.Faults
	cfg.IPCFaultSeed = o.Seed ^ runSeed
	cfg.IPCTimeoutCycles = o.TimeoutCycles
	cfg.IPCRetryMax = o.RetryMax
	return cfg
}

// SweepPoint is one row of an IPC fault-rate sweep: all five fault
// rates set to RateBP basis points each.
type SweepPoint struct {
	RateBP int
	Runs   int
	Counts map[Outcome]int
	// Consistent counts runs whose audits all passed;
	// InconsistentSeeds replays the rest.
	Consistent        int
	InconsistentSeeds []uint64
}

// Percent reports the share of runs with the given outcome.
func (p SweepPoint) Percent(o Outcome) float64 {
	if p.Runs == 0 {
		return 0
	}
	return 100 * float64(p.Counts[o]) / float64(p.Runs)
}

// ConsistentPercent reports the share of runs the auditor classified
// consistent.
func (p SweepPoint) ConsistentPercent() float64 {
	if p.Runs == 0 {
		return 0
	}
	return 100 * float64(p.Consistent) / float64(p.Runs)
}

// SweepIPC runs the suite `runs` times per rate point, with every fault
// class (drop, duplicate, delay, reorder, corrupt) at rateBP basis
// points, and reports survival and audited consistency per point.
// Results are bit-identical for any worker count and any exec.
func SweepIPC(policy seep.Policy, seed uint64, ratesBP []int, runs, workers int, exec Exec) []SweepPoint {
	points, _ := sweepIPC(policy, seed, ratesBP, runs, workers, exec)
	return points
}

// sweepIPC is SweepIPC plus the warm-plane serving statistics. Each
// run is a background run — the empty plan on the multi-fault machine
// configuration, classified into the paper's four classes. Zero-rate
// points leave the transport untouched, so their runs fork the
// deepest rung of one ladder; points with live rates draw per-run
// fault placements during boot and boot cold (see warmboot.go).
func sweepIPC(policy seep.Policy, seed uint64, ratesBP []int, runs, workers int, exec Exec) ([]SweepPoint, PlaneStats) {
	if runs <= 0 {
		runs = 5
	}
	type job struct{ point, run int }
	var jobs []job
	for p := range ratesBP {
		for r := 0; r < runs; r++ {
			jobs = append(jobs, job{p, r})
		}
	}
	rates := func(bp int) IPCOptions {
		return IPCOptions{
			Faults: kernel.IPCFaultConfig{
				DropBP: bp, DupBP: bp, DelayBP: bp, ReorderBP: bp, CorruptBP: bp,
			},
			Seed: seed ^ 0x51EE9,
		}
	}
	r := newRunner(backgroundShape, policy, seed, exec)
	for _, bp := range ratesBP {
		r.open(rates(bp).normalized(false))
	}
	defer r.close()
	results, stats := fanout[MultiRunResult]{workers: workers}.run(len(jobs), func(i int) (MultiRunResult, serving) {
		return r.serve(seed+uint64(i)*15485863, nil, rates(ratesBP[jobs[i].point]))
	})
	points := make([]SweepPoint, len(ratesBP))
	for i := range points {
		points[i] = SweepPoint{RateBP: ratesBP[i], Counts: make(map[Outcome]int)}
	}
	for i, rr := range results {
		p := &points[jobs[i].point]
		p.Runs++
		p.Counts[rr.Outcome]++
		if rr.Consistent {
			p.Consistent++
		} else {
			p.InconsistentSeeds = append(p.InconsistentSeeds, rr.Seed)
		}
	}
	return points, stats
}
