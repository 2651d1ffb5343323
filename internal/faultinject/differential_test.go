package faultinject

import (
	"reflect"
	"testing"

	"repro/internal/kernel"
	"repro/internal/seep"
	"repro/internal/testsuite"
)

// The differential harness: every oracle and every tuning knob must
// leave results bit-identical. Each workload computes its default-path
// result once — the zero Exec on one worker — and every candidate must
// reproduce it exactly, run for run: outcomes, trigger flags, failure
// counts, reasons and audit verdicts (and, for the suite boot, the
// kernel result and the full counter snapshot). The candidates are more
// workers, the oracles (cold boots, full suffix execution, the legacy
// O(n) scheduler scan) and snapshot
// budgets that force LRU eviction or disable the ladder. Everything
// runs under t.Parallel, so concurrent forks from shared snapshots are
// exercised under the race detector too. CI selects one oracle with
// -run 'Differential/.*/<candidate>'.

// candidate is one execution path the default must agree with.
type candidate struct {
	name    string
	workers int
	exec    Exec
}

var candidates = []candidate{
	{"Workers2", 2, Exec{}},
	{"Workers8", 8, Exec{}},
	{"ColdBoot", 2, Exec{ColdBoot: true}},
	{"NoElide", 2, Exec{NoElide: true}},
	{"LegacyScheduler", 2, Exec{LegacyScheduler: true}},
	{"SnapCache2MiB", 2, Exec{SnapshotCacheBytes: 2 << 20}},
	{"SnapCacheOff", 2, Exec{SnapshotCacheBytes: -1}},
}

// outcome is what a workload produced under one candidate.
type outcome struct {
	// runs holds the per-run records (a slice), compared element-wise so
	// a divergence names its run.
	runs any
	// agg is the aggregate the public API reports (nil when the runs
	// are the whole result).
	agg any
	// stats is the warm plane's serving split over n runs (nil outside
	// campaigns).
	stats *PlaneStats
	n     int
}

// workload is one experiment, run under a worker count and an Exec.
type workload struct {
	name string
	// machineOnly workloads boot machines outside any campaign, so only
	// the machine-level candidate (the legacy scheduler) applies to them.
	machineOnly bool
	run         func(profile []SiteProfile, workers int, exec Exec) outcome
}

// suiteRun is one plain suite boot: kernel result, full counter
// snapshot and suite tally.
type suiteRun struct {
	Result   kernel.Result
	Counters map[string]uint64
	Report   testsuite.Report
}

// suiteBoots boots the prototype suite (the Table I workload) under
// three policies and three seeds.
func suiteBoots(_ []SiteProfile, _ int, exec Exec) outcome {
	var runs []suiteRun
	for _, policy := range []seep.Policy{seep.PolicyEnhanced, seep.PolicyPessimistic, seep.PolicyStateless} {
		for _, seed := range []uint64{1, 7, 42} {
			var r suiteRun
			sys := bootSuite(exec.machine(multiFaultConfig(policy, seed, IPCOptions{})), &r.Report)
			r.Result = sys.Run(RunLimit)
			r.Counters = sys.Kernel().Counters().Snapshot()
			runs = append(runs, r)
		}
	}
	return outcome{runs: runs}
}

// singleCampaign runs cfg as a single-fault campaign.
func singleCampaign(cfg CampaignConfig) func([]SiteProfile, int, Exec) outcome {
	return func(profile []SiteProfile, workers int, exec Exec) outcome {
		cfg := cfg
		cfg.Workers, cfg.Exec = workers, exec
		var runs []RunResult
		cfg.OnResult = func(_ int, rr RunResult) { runs = append(runs, rr) }
		res, stats := RunCampaignWithStats(cfg, profile)
		return outcome{runs: runs, agg: res, stats: &stats, n: len(runs)}
	}
}

// multiCampaign runs cfg as a multi-fault campaign.
func multiCampaign(cfg MultiCampaignConfig) func([]SiteProfile, int, Exec) outcome {
	return func(profile []SiteProfile, workers int, exec Exec) outcome {
		cfg := cfg
		cfg.Workers, cfg.Exec = workers, exec
		var runs []MultiRunResult
		cfg.OnResult = func(_ int, rr MultiRunResult) { runs = append(runs, rr) }
		res, stats := RunMultiCampaignWithStats(cfg, profile)
		return outcome{runs: runs, agg: res, stats: &stats, n: len(runs)}
	}
}

// ipcSweep mixes a forkable zero-rate row with rows whose background
// rates force cold boots.
func ipcSweep(_ []SiteProfile, workers int, exec Exec) outcome {
	points, stats := sweepIPC(seep.PolicyEnhanced, 42, []int{0, 25, 200}, 3, workers, exec)
	return outcome{runs: points, stats: &stats, n: 3 * len(points)}
}

var workloads = []workload{
	{name: "SuiteBoot", machineOnly: true, run: suiteBoots},
	{name: "FailStop", run: singleCampaign(CampaignConfig{
		Policy: seep.PolicyEnhanced, Model: FailStop, Seed: 42, SamplesPerSite: 1, MaxRuns: 24,
	})},
	{name: "EDFI", run: singleCampaign(CampaignConfig{
		Policy: seep.PolicyEnhanced, Model: FullEDFI, Seed: 42, SamplesPerSite: 1, MaxRuns: 16,
	})},
	// IPC-mix campaigns arm the reliability layer on every run: the
	// snapshot must carry the interposition plane and each fork must
	// re-seed its per-run fault stream.
	{name: "IPCMix", run: singleCampaign(CampaignConfig{
		Policy: seep.PolicyEnhanced, Model: IPCMix, Seed: 42, SamplesPerSite: 1, MaxRuns: 12,
	})},
	// Background transport noise draws per-run fault placements from
	// cycle zero, so every run boots cold under the reliability layer.
	{name: "IPCNoise", run: singleCampaign(CampaignConfig{
		Policy: seep.PolicyEnhanced, Model: FailStop, Seed: 42, SamplesPerSite: 1, MaxRuns: 8,
		IPC: IPCOptions{Faults: kernel.IPCFaultConfig{DropBP: 50, CorruptBP: 50}, Seed: 0xABCD},
	})},
	// Two full-EDFI faults per boot: enough runs see every fault fire
	// and reconverge that multi-fault elision is exercised (see
	// TestDifferential's elision check).
	{name: "Multi", run: multiCampaign(MultiCampaignConfig{
		Policy: seep.PolicyEnhanced, Model: FullEDFI, Faults: 2, Runs: 12, Seed: 42,
	})},
	{name: "IPCSweep", run: ipcSweep},
}

func TestDifferential(t *testing.T) {
	t.Parallel()
	profile, err := Profile(42)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			want := w.run(profile, 1, Exec{})
			checkServing(t, want, Exec{}, nil)
			// A workload with warm runs must elide some of them, or its
			// NoElide case would compare full execution with itself.
			if st := want.stats; st != nil && st.LadderForks+st.BootForks > 0 && st.Elided == 0 {
				t.Errorf("default path elided none of %d warm runs: %+v", st.LadderForks+st.BootForks, *st)
			}
			for _, c := range candidates {
				if w.machineOnly && !c.exec.LegacyScheduler {
					continue
				}
				t.Run(c.name, func(t *testing.T) {
					t.Parallel()
					got := w.run(profile, c.workers, c.exec)
					compareOutcomes(t, want, got)
					checkServing(t, got, c.exec, want.stats)
				})
			}
		})
	}
}

// compareOutcomes reports every run that diverged from the default, and
// the aggregate.
func compareOutcomes(t *testing.T, want, got outcome) {
	t.Helper()
	wr, gr := reflect.ValueOf(want.runs), reflect.ValueOf(got.runs)
	if wr.Len() != gr.Len() {
		t.Fatalf("%d runs, default path has %d", gr.Len(), wr.Len())
	}
	for i := 0; i < wr.Len(); i++ {
		if w, g := wr.Index(i).Interface(), gr.Index(i).Interface(); !reflect.DeepEqual(w, g) {
			t.Errorf("run %d diverged:\ndefault:   %+v\ncandidate: %+v", i, w, g)
		}
	}
	if !reflect.DeepEqual(want.agg, got.agg) {
		t.Errorf("aggregate diverged:\ndefault:   %+v\ncandidate: %+v", want.agg, got.agg)
	}
}

// checkServing asserts the serving split accounts for every run and
// honors exec: pinned cold boots never fork, a disabled ladder serves
// only the boot barrier, pinned full execution charges every warm run
// to the pin, and no knob other than ColdBoot changes the cold-boot
// count from the default's (base; nil for the default itself).
func checkServing(t *testing.T, o outcome, exec Exec, base *PlaneStats) {
	t.Helper()
	st, n := o.stats, o.n
	if st == nil {
		return
	}
	if st.Total() != n {
		t.Errorf("serving split covers %d runs, campaign has %d: %+v", st.Total(), n, *st)
	}
	assertElisionAccounted(t, *st)
	switch {
	case exec.ColdBoot:
		if st.ColdBoots != n {
			t.Errorf("pinned cold boots forked: %+v", *st)
		}
	case base != nil && st.ColdBoots != base.ColdBoots:
		t.Errorf("%d cold boots, default path has %d: %+v", st.ColdBoots, base.ColdBoots, *st)
	}
	if exec.SnapshotCacheBytes < 0 && st.LadderForks != 0 {
		t.Errorf("disabled ladder served %d mid-suite forks", st.LadderForks)
	}
	if warm := st.LadderForks + st.BootForks; exec.NoElide && st.ElisionFallbacks[ElideFallbackPinned] != warm {
		t.Errorf("pinned full execution: %d of %d warm runs charged to %s: %+v",
			st.ElisionFallbacks[ElideFallbackPinned], warm, ElideFallbackPinned, *st)
	}
}
