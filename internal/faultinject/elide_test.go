package faultinject

import (
	"reflect"
	"testing"

	"repro/internal/seep"
)

// Tail elision must be invisible in campaign results — the
// differential harness's NoElide cases compare every campaign against
// full execution. These tests drive every elision fallback reason
// through its path and check the serving split accounts for every warm
// run. All names start with TestElide so CI can select the suite with
// -run Elide.

// elideTestPlan returns the standing elision campaign — large enough
// that some runs elide, some mismatch, some never trigger — plus its
// pinned full-execution oracle result.
func elideTestPlan(t *testing.T) (CampaignConfig, []SiteProfile, CampaignResult) {
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
		MaxRuns:        24,
	}
	pinned := cfg
	pinned.Exec.NoElide = true
	return cfg, profile, RunCampaign(pinned, profile)
}

// assertElisionAccounted checks the serving-split invariant: every
// warm-served run either elided its tail or is charged exactly one
// elision fallback reason.
func assertElisionAccounted(t *testing.T, stats PlaneStats) {
	t.Helper()
	fallbacks := 0
	for _, n := range stats.ElisionFallbacks {
		fallbacks += n
	}
	if warm := stats.LadderForks + stats.BootForks; stats.Elided+fallbacks != warm {
		t.Errorf("elision split leaks runs: %d elided + %d fallbacks != %d warm (%+v)",
			stats.Elided, fallbacks, warm, stats.ElisionFallbacks)
	}
}

// Pinning -noelide charges every warm run to noelide-pinned and elides
// nothing, with results unchanged — the oracle is plain full execution.
func TestElideFallbackPinned(t *testing.T) {
	t.Parallel()
	cfg, profile, oracle := elideTestPlan(t)
	cfg.Exec.NoElide = true
	res, stats := RunCampaignWithStats(cfg, profile)
	if !reflect.DeepEqual(oracle, res) {
		t.Errorf("pinned campaign diverged:\nwant: %+v\ngot:  %+v", oracle, res)
	}
	if stats.Elided != 0 {
		t.Errorf("pinned campaign elided %d runs", stats.Elided)
	}
	warm := stats.LadderForks + stats.BootForks
	if warm == 0 || stats.ElisionFallbacks[ElideFallbackPinned] != warm {
		t.Errorf("warm runs not charged to %s: %+v", ElideFallbackPinned, stats)
	}
	assertElisionAccounted(t, stats)
}

// A negative cache budget tears the pathfinder down at rung 0, so no
// walk tail is ever recorded: runs whose faults fully recover reach the
// fingerprint gates but find no tail to splice.
func TestElideFallbackNoTail(t *testing.T) {
	t.Parallel()
	cfg, profile, oracle := elideTestPlan(t)
	cfg.Exec.SnapshotCacheBytes = -1
	res, stats := RunCampaignWithStats(cfg, profile)
	if !reflect.DeepEqual(oracle, res) {
		t.Errorf("tail-less campaign diverged:\nwant: %+v\ngot:  %+v", oracle, res)
	}
	if stats.Elided != 0 {
		t.Errorf("campaign without a tail elided %d runs", stats.Elided)
	}
	if stats.ElisionFallbacks[ElideFallbackNoTail] == 0 {
		t.Errorf("no run charged to %s: %+v", ElideFallbackNoTail, stats.ElisionFallbacks)
	}
	assertElisionAccounted(t, stats)
}

// A fault whose occurrence lies beyond the site's total count never
// fires: the run executes the whole suite warm with the elision gate
// blocked at every barrier, and is charged fault-untriggered.
func TestElideFallbackUntriggered(t *testing.T) {
	t.Parallel()
	profile, err := Profile(42)
	if err != nil {
		t.Fatal(err)
	}
	var deep *SiteProfile
	for i := range profile {
		if profile[i].Candidate() {
			deep = &profile[i]
			break
		}
	}
	if deep == nil {
		t.Fatal("profile has no candidate site")
	}
	inj := Injection{
		Server:     deep.Server,
		Site:       deep.Site,
		Occurrence: deep.Total + 1000,
		Type:       FaultCrash,
	}
	r := newRunner(singleShape, seep.PolicyEnhanced, 42, Exec{})
	r.openSingle(IPCOptions{}, []Injection{inj})
	defer r.close()
	warmRR, served := r.single(99, inj, IPCOptions{})
	coldRR := RunOne(seep.PolicyEnhanced, 99, inj)
	if !reflect.DeepEqual(coldRR, warmRR) {
		t.Errorf("untriggered run diverged:\ncold: %+v\nwarm: %+v", coldRR, warmRR)
	}
	assertServedFull(t, served, ElideFallbackUntriggered)
}

// assertServedFull checks that a run forked warm, executed its suffix
// in full and was charged reason.
func assertServedFull(t *testing.T, served serving, reason string) {
	t.Helper()
	if served.kind != servedFull || served.reason != reason {
		t.Errorf("run served %v, want a rung fork charged to full:%s", served, reason)
	}
}

// serveMulti serves one multi-fault plan warm on a fresh runner, and
// returns it with the plan's cold-boot result.
func serveMulti(t *testing.T, plan []MultiInjection) (warm, cold MultiRunResult, served serving) {
	t.Helper()
	r := newRunner(multiShape, seep.PolicyEnhanced, 42, Exec{})
	r.open(IPCOptions{}.normalized(plansArmIPC(plan)))
	defer r.close()
	warm, served = r.serve(7, plan, IPCOptions{})
	return warm, RunMultiWith(seep.PolicyEnhanced, 7, plan, IPCOptions{}), served
}

// Persistent faults re-fire after every restart, so the plan-wide
// readiness gate never opens: multi-fault runs carrying one execute in
// full and are charged fault-untriggered.
func TestElideFallbackPersistentNeverReady(t *testing.T) {
	t.Parallel()
	profile, err := Profile(42)
	if err != nil {
		t.Fatal(err)
	}
	var deep *SiteProfile
	for i := range profile {
		if profile[i].Candidate() {
			deep = &profile[i]
			break
		}
	}
	if deep == nil {
		t.Fatal("profile has no candidate site")
	}
	plan := []MultiInjection{
		{Injection: Injection{Server: deep.Server, Site: deep.Site, Occurrence: deep.Boot + 1, Type: FaultCrash}},
		{Injection: Injection{Server: deep.Server, Site: deep.Site, Occurrence: 1, Type: FaultCrash}, Persistent: true},
	}
	warmRR, coldRR, served := serveMulti(t, plan)
	if !reflect.DeepEqual(coldRR, warmRR) {
		t.Errorf("persistent-fault run diverged:\ncold: %+v\nwarm: %+v", coldRR, warmRR)
	}
	assertServedFull(t, served, ElideFallbackUntriggered)
}

// A crash whose recovery is itself crashed repeatedly exhausts the
// component's restart budget and quarantines it. Quarantine is
// permanent fault residue: the machine is never elision-quiescent
// again, so the run executes in full and is charged state-residue —
// while staying bit-identical to its cold boot. (The during-recovery
// faults are exempt from the readiness gate, so residue — not
// fault-untriggered — is the blocker this plan pins.)
func TestElideFallbackResidue(t *testing.T) {
	t.Parallel()
	profile, err := Profile(42)
	if err != nil {
		t.Fatal(err)
	}
	var deep *SiteProfile
	for i := range profile {
		if profile[i].Candidate() {
			deep = &profile[i]
			break
		}
	}
	if deep == nil {
		t.Fatal("profile has no candidate site")
	}
	plan := []MultiInjection{
		{Injection: Injection{Server: deep.Server, Site: deep.Site, Occurrence: deep.Boot + 1, Type: FaultCrash}},
	}
	for j := 0; j < 3; j++ {
		plan = append(plan, MultiInjection{
			Injection:      Injection{Server: deep.Server, Site: deep.Site, Occurrence: j + 1, Type: FaultCrash},
			DuringRecovery: true,
		})
	}
	warmRR, coldRR, served := serveMulti(t, plan)
	if !reflect.DeepEqual(coldRR, warmRR) {
		t.Errorf("quarantined run diverged:\ncold: %+v\nwarm: %+v", coldRR, warmRR)
	}
	assertServedFull(t, served, ElideFallbackResidue)
}

// The standing campaign is rich enough to elide some runs and to drive
// the untriggered and mismatch fallbacks, and OnServe reports one
// decision per run in plan order. (The rendering and fold of serving
// decisions are TestServingDecision's.)
func TestElideServingDecisions(t *testing.T) {
	t.Parallel()
	cfg, profile, _ := elideTestPlan(t)
	var order []int
	cfg.OnServe = func(index int, _ string) { order = append(order, index) }
	_, stats := RunCampaignWithStats(cfg, profile)
	plan := PlanCampaign(cfg, profile)
	if len(order) != len(plan) {
		t.Fatalf("recorded %d decisions for %d runs", len(order), len(plan))
	}
	for i, idx := range order {
		if idx != i {
			t.Fatalf("OnServe order %v is not plan order", order)
		}
	}
	if stats.Elided == 0 {
		t.Errorf("no run elided its tail: %+v", stats)
	}
	for _, reason := range []string{ElideFallbackUntriggered, ElideFallbackMismatch} {
		if stats.ElisionFallbacks[reason] == 0 {
			t.Errorf("campaign never exercised fallback %q: %+v", reason, stats.ElisionFallbacks)
		}
	}
}

// PlaneStats accumulation must stay exhaustive under concurrent
// campaign workers: split totals sum to the run count and the elision
// split covers every warm run, race-clean (this test is part of the
// -race CI job).
func TestElidePlaneStatsConcurrent(t *testing.T) {
	t.Parallel()
	cfg, profile, _ := elideTestPlan(t)
	plan := PlanCampaign(cfg, profile)
	for _, workers := range []int{2, 8} {
		cfg.Workers = workers
		_, stats := RunCampaignWithStats(cfg, profile)
		if stats.Total() != len(plan) {
			t.Errorf("workers=%d: stats cover %d runs, plan has %d", workers, stats.Total(), len(plan))
		}
		assertElisionAccounted(t, stats)
	}
}
