package faultinject

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/boot"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/seep"
	"repro/internal/usr"
)

// The snapshot ladder rides on one invariant beyond the boot-barrier
// fork: the fault-free suite trace — per-site fault-point counts and
// suite tallies at every program boundary — is seed-independent. These
// tests assert that property directly, drive every fallback reason
// through its path, and probe the LRU cache at its budget edges; the
// campaign-level equivalence under cache pressure and with the ladder
// disabled is the differential harness's SnapCache cases. All names
// start with TestLadder so CI selects them with -run Ladder.

// TestLadderCacheBoundaries drives snapCache through its budget edges
// with one real rung-0 snapshot reused at several indices: a budget
// smaller than a single snapshot caches nothing, an exact-fit budget
// holds without evicting, and one byte past exact fit evicts in
// least-recently-served order.
func TestLadderCacheBoundaries(t *testing.T) {
	t.Parallel()
	l := newLadder(singleFaultConfig(seep.PolicyEnhanced, 7, IPCOptions{}), Exec{})
	if l == nil {
		t.Fatal("pathfinder failed to reach the boot barrier")
	}
	defer l.Close()
	snap := l.cache.rung0
	size := snap.SizeBytes()
	if size <= 0 {
		t.Fatalf("rung 0 snapshot reports size %d", size)
	}

	t.Run("SmallerThanOneSnapshot", func(t *testing.T) {
		c := newSnapCache(size-1, snap)
		c.add(1, snap)
		if len(c.snaps) != 0 || c.used != 0 {
			t.Fatalf("snapshot larger than the whole budget was cached: %d entries, %d bytes", len(c.snaps), c.used)
		}
		if idx, got := c.deepest(5); idx != 0 || got != snap {
			t.Fatalf("deepest fell to rung %d, want the pinned rung 0", idx)
		}
	})

	t.Run("ZeroBudget", func(t *testing.T) {
		c := newSnapCache(0, snap)
		c.add(1, snap)
		if len(c.snaps) != 0 {
			t.Fatal("zero budget still cached a snapshot")
		}
		if idx, _ := c.deepest(3); idx != 0 {
			t.Fatalf("deepest fell to rung %d, want 0", idx)
		}
	})

	t.Run("NegativeBudgetDisables", func(t *testing.T) {
		c := newSnapCache(-1, snap)
		c.add(1, snap)
		c.add(2, snap)
		if len(c.snaps) != 0 || c.used != 0 {
			t.Fatal("disabled cache accepted snapshots")
		}
		if idx, got := c.deepest(2); idx != 0 || got != snap {
			t.Fatalf("disabled cache served rung %d, want the pinned rung 0", idx)
		}
	})

	t.Run("ExactFitDoesNotEvict", func(t *testing.T) {
		c := newSnapCache(2*size, snap)
		c.add(1, snap)
		c.add(2, snap)
		if len(c.snaps) != 2 || c.used != 2*size {
			t.Fatalf("exact-fit pair evicted: %d entries, %d/%d bytes", len(c.snaps), c.used, 2*size)
		}
	})

	t.Run("EvictsLeastRecentlyServed", func(t *testing.T) {
		c := newSnapCache(2*size, snap)
		c.add(1, snap)
		c.add(2, snap)
		// Serve rung 1 so rung 2 becomes the eviction victim.
		if idx, _ := c.deepest(1); idx != 1 {
			t.Fatalf("deepest(1) served rung %d", idx)
		}
		c.add(3, snap)
		if _, ok := c.snaps[2]; ok {
			t.Fatal("least-recently-served rung 2 survived eviction")
		}
		if _, ok := c.snaps[1]; !ok {
			t.Fatal("recently served rung 1 was evicted")
		}
		if _, ok := c.snaps[3]; !ok {
			t.Fatal("newly added rung 3 was evicted instead of the LRU victim")
		}
		if c.used != 2*size {
			t.Fatalf("cache accounts %d bytes after eviction, want %d", c.used, 2*size)
		}
		// And with everything beyond the budget gone, deepest still
		// degrades to rung 0 below the cached range.
		if idx, got := c.deepest(0); idx != 0 || got != snap {
			t.Fatalf("deepest(0) served rung %d", idx)
		}
	})
}

// TestLadderDisabledBudgetWithColdBootPinned combines the two opt-outs
// (negative cache budget and -coldboot): every run must boot cold, be
// charged to the cold-boot pin, and still aggregate bit-identically.
func TestLadderDisabledBudgetWithColdBootPinned(t *testing.T) {
	t.Parallel()
	cfg, profile, coldRes := ladderTestPlan(t)
	cfg.Exec = Exec{ColdBoot: true, SnapshotCacheBytes: -1}
	res, stats := RunCampaignWithStats(cfg, profile)
	if !reflect.DeepEqual(res, coldRes) {
		t.Errorf("campaign diverged with ladder disabled + cold boots pinned:\nwant %+v\ngot  %+v", coldRes, res)
	}
	if stats.LadderForks != 0 || stats.BootForks != 0 {
		t.Errorf("pinned cold-boot campaign still forked: %+v", stats)
	}
	if stats.Fallbacks[FallbackColdBootPinned] != stats.Total() || stats.Total() == 0 {
		t.Errorf("runs not charged to %s: %+v", FallbackColdBootPinned, stats)
	}
}

// Per-rung fault-point counts and suite tallies must not depend on the
// pathfinder's seed: this is the invariant that makes forking a rung
// captured at one seed bit-identical to a cold boot at another.
func TestLadderRungCountsSeedIndependent(t *testing.T) {
	t.Parallel()
	type walk struct {
		seed  uint64
		rungs []rung
	}
	var walks []walk
	for _, seed := range []uint64{7, 42, 1000007} {
		l := newLadder(singleFaultConfig(seep.PolicyEnhanced, seed, IPCOptions{}), Exec{})
		if l == nil {
			t.Fatalf("seed %d: pathfinder failed to reach the boot barrier", seed)
		}
		l.serve(nil) // the empty plan drives the walk to suite completion
		l.Close()
		walks = append(walks, walk{seed, l.rungs})
	}
	ref := walks[0]
	if len(ref.rungs) < 10 {
		t.Fatalf("walk recorded only %d rungs; suite should yield many more", len(ref.rungs))
	}
	for _, w := range walks[1:] {
		if len(w.rungs) != len(ref.rungs) {
			t.Fatalf("seed %d: %d rungs, seed %d: %d rungs",
				ref.seed, len(ref.rungs), w.seed, len(w.rungs))
		}
		for i := range ref.rungs {
			if !reflect.DeepEqual(ref.rungs[i].counts, w.rungs[i].counts) {
				t.Errorf("rung %d: site counts differ between seeds %d and %d",
					i, ref.seed, w.seed)
			}
			if !reflect.DeepEqual(ref.rungs[i].prefix, w.rungs[i].prefix) {
				t.Errorf("rung %d: suite tally differs between seeds %d and %d:\n%+v\n%+v",
					i, ref.seed, w.seed, ref.rungs[i].prefix, w.rungs[i].prefix)
			}
		}
	}
}

// ladderTestPlan returns a small single-fault campaign and its cold
// oracle result.
func ladderTestPlan(t *testing.T) (CampaignConfig, []SiteProfile, CampaignResult) {
	t.Helper()
	profile, err := Profile(42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := CampaignConfig{
		Policy:         seep.PolicyEnhanced,
		Model:          FailStop,
		Seed:           42,
		SamplesPerSite: 1,
		MaxRuns:        6,
	}
	cold := cfg
	cold.Exec.ColdBoot = true
	return cfg, profile, RunCampaign(cold, profile)
}

func TestLadderFallbackColdBootPinned(t *testing.T) {
	t.Parallel()
	cfg, profile, _ := ladderTestPlan(t)
	cfg.Exec.ColdBoot = true
	_, stats := RunCampaignWithStats(cfg, profile)
	if stats.LadderForks != 0 || stats.BootForks != 0 {
		t.Errorf("pinned cold boots still forked: %+v", stats)
	}
	if stats.ColdBoots == 0 || stats.Fallbacks[FallbackColdBootPinned] != stats.ColdBoots {
		t.Errorf("cold boots not charged to %s: %+v", FallbackColdBootPinned, stats)
	}
}

func TestLadderFallbackBackgroundRates(t *testing.T) {
	t.Parallel()
	// A sweep with no zero-rate point: every run draws background fault
	// placements during boot and must boot cold.
	points, stats := sweepIPC(seep.PolicyEnhanced, 42, []int{25}, 2, 1, Exec{})
	coldPoints := SweepIPC(seep.PolicyEnhanced, 42, []int{25}, 2, 1, Exec{ColdBoot: true})
	if !reflect.DeepEqual(points, coldPoints) {
		t.Errorf("rate-point sweep diverged:\ncold: %+v\nwarm: %+v", coldPoints, points)
	}
	if stats.LadderForks != 0 || stats.BootForks != 0 {
		t.Errorf("background-rate runs forked: %+v", stats)
	}
	if stats.Fallbacks[FallbackBackgroundRates] != stats.ColdBoots || stats.ColdBoots != 2 {
		t.Errorf("cold boots not charged to %s: %+v", FallbackBackgroundRates, stats)
	}

	// A campaign whose every run carries background rates is pinned cold
	// at plane construction, whatever fault types the plan arms.
	cfg, profile, _ := ladderTestPlan(t)
	cfg.IPC = IPCOptions{Faults: kernel.IPCFaultConfig{DropBP: 25}, Seed: 7}
	res, stats := RunCampaignWithStats(cfg, profile)
	cold := cfg
	cold.Exec.ColdBoot = true
	coldRes := RunCampaign(cold, profile)
	if !reflect.DeepEqual(res, coldRes) {
		t.Errorf("background-rate campaign diverged:\ncold: %+v\nwarm: %+v", coldRes, res)
	}
	if stats.Fallbacks[FallbackBackgroundRates] != stats.Total() {
		t.Errorf("cold boots not charged to %s: %+v", FallbackBackgroundRates, stats)
	}
}

func TestLadderFallbackOccurrenceWithinBoot(t *testing.T) {
	t.Parallel()
	profile, err := Profile(42)
	if err != nil {
		t.Fatal(err)
	}
	// Pick a site that executes during boot and arm its very first
	// occurrence: the trigger is consumed before the boot barrier, so
	// even the boot-barrier fork would miss it.
	var boot0 *SiteProfile
	for i := range profile {
		if profile[i].Boot > 0 {
			boot0 = &profile[i]
			break
		}
	}
	if boot0 == nil {
		t.Fatal("no site executes during boot; profile changed shape")
	}
	inj := Injection{Server: boot0.Server, Site: boot0.Site, Occurrence: 1, Type: FaultCrash}
	r := newRunner(singleShape, seep.PolicyEnhanced, 42, Exec{})
	r.openSingle(IPCOptions{}, []Injection{inj})
	defer r.close()
	warmRR, served := r.single(99, inj, IPCOptions{})
	coldRR := RunOne(seep.PolicyEnhanced, 99, inj)
	if !reflect.DeepEqual(coldRR, warmRR) {
		t.Errorf("pre-barrier run diverged:\ncold: %+v\nwarm: %+v", coldRR, warmRR)
	}
	if want := (serving{kind: servedCold, reason: FallbackPreBarrier}); served != want {
		t.Errorf("run served %v, want %v", served, want)
	}
}

func TestLadderFallbackForkFailed(t *testing.T) {
	t.Parallel()
	cfg, profile, coldRes := ladderTestPlan(t)
	r := newRunner(singleShape, cfg.Policy, cfg.Seed, cfg.Exec)
	r.fork = func(*boot.Snapshot, boot.ForkParams, usr.Program, ...string) (*boot.System, error) {
		return nil, errors.New("injected fork failure")
	}
	res, stats := runCampaign(cfg, PlanCampaign(cfg, profile), r)
	if !reflect.DeepEqual(res, coldRes) {
		t.Errorf("fork-failure campaign diverged:\ncold: %+v\nwarm: %+v", coldRes, res)
	}
	if stats.LadderForks != 0 || stats.BootForks != 0 {
		t.Errorf("failed forks counted as served: %+v", stats)
	}
	if stats.Fallbacks[FallbackForkFailed] != stats.Total() || stats.Total() == 0 {
		t.Errorf("cold boots not charged to %s: %+v", FallbackForkFailed, stats)
	}
}

func TestLadderFallbackCaptureFailed(t *testing.T) {
	t.Parallel()
	cfg, profile, coldRes := ladderTestPlan(t)
	r := newRunner(singleShape, cfg.Policy, cfg.Seed, cfg.Exec)
	r.build = func(core.Config, Exec) *ladder { return nil }
	res, stats := runCampaign(cfg, PlanCampaign(cfg, profile), r)
	if !reflect.DeepEqual(res, coldRes) {
		t.Errorf("capture-failure campaign diverged:\ncold: %+v\nwarm: %+v", coldRes, res)
	}
	if stats.Fallbacks[FallbackNoSnapshot] != stats.Total() || stats.Total() == 0 {
		t.Errorf("cold boots not charged to %s: %+v", FallbackNoSnapshot, stats)
	}
}

// Zero-rate sweep runs arm nothing, so they fork the DEEPEST cached
// rung and replay only the suite tail.
func TestLadderServesBackgroundZeroRate(t *testing.T) {
	t.Parallel()
	points, stats := sweepIPC(seep.PolicyEnhanced, 42, []int{0}, 3, 1, Exec{})
	coldPoints := SweepIPC(seep.PolicyEnhanced, 42, []int{0}, 3, 1, Exec{ColdBoot: true})
	if !reflect.DeepEqual(points, coldPoints) {
		t.Errorf("zero-rate sweep diverged:\ncold: %+v\nwarm: %+v", coldPoints, points)
	}
	if stats.LadderForks != 3 || stats.ColdBoots != 0 {
		t.Errorf("zero-rate runs not ladder-served: %+v", stats)
	}
}

// Armed campaign runs should overwhelmingly fork from mid-suite rungs;
// the split is accounted exhaustively.
func TestLadderServingStatsAccounting(t *testing.T) {
	t.Parallel()
	cfg, profile, coldRes := ladderTestPlan(t)
	res, stats := RunCampaignWithStats(cfg, profile)
	if !reflect.DeepEqual(res, coldRes) {
		t.Errorf("campaign diverged:\ncold: %+v\nwarm: %+v", coldRes, res)
	}
	plan := PlanCampaign(cfg, profile)
	if stats.Total() != len(plan) {
		t.Errorf("stats cover %d runs, plan has %d", stats.Total(), len(plan))
	}
	if stats.LadderForks == 0 {
		t.Errorf("no run forked from a mid-suite rung: %+v", stats)
	}
}
