package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks
// the benchmark's output against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// assertMetrics requires got to hold exactly the named metrics, each
// with its unit.
func assertMetrics(t *testing.T, label string, got metrics, want []specMetric) {
	t.Helper()
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", label, w.Name)
			continue
		}
		if m.Unit != w.Unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", label, w.Name, m.Unit, w.Unit)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: emitted %d metrics, BENCHMARK.json names %d", label, len(got), len(want))
	}
}

// TestEveryMetricEmitted runs every workload briefly, untraced and
// traced, and checks the emitted metrics against BENCHMARK.json.
func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := readSpec(t)
	for _, wl := range spec.Workloads {
		res, err := run(options{workload: wl.Name, seed: 42, seconds: time.Second}, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: output check failed: %+v", wl.Name, res)
		}
		assertMetrics(t, wl.Name, res.Metrics, spec.EndToEnd)
	}
	spans := filepath.Join(t.TempDir(), "spans.json")
	res, err := run(options{workload: wlUnixbench, seed: 42, seconds: time.Second, trace: true, spans: spans}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("traced run: output check failed: %+v", res)
	}
	assertMetrics(t, "traced", res.Metrics, spec.PerLayer)
	data, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var written struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &written); err != nil || len(written.Spans) == 0 {
		t.Errorf("spans file: %d spans, err %v", len(written.Spans), err)
	}
}

// TestUnixbenchCheckFailsOnPerturbedReference checks that the unixbench
// output check accepts the recorded reference and rejects a reference
// off by one virtual cycle.
func TestUnixbenchCheckFailsOnPerturbedReference(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	p := runUnixbenchPass(7, nil)
	ck := &checker{}
	checkUnixbench(ck, "pass", p, ref)
	if ck.failed != 0 {
		t.Fatalf("check failed on the reference: %v", ck.msgs)
	}
	perturbed := make(map[string]programRef, len(ref))
	for name, r := range ref {
		perturbed[name] = r
	}
	pipe := perturbed["pipe"]
	pipe.Cycles++
	perturbed["pipe"] = pipe
	ck = &checker{}
	checkUnixbench(ck, "pass", p, perturbed)
	if ck.failed != 1 {
		t.Fatalf("perturbed reference: %d programs failed, want 1 (%v)", ck.failed, ck.msgs)
	}
}

// TestCampaignCheckFailsOnPerturbedResult checks that the campaign
// output checks accept a served campaign and reject one whose result was
// altered, both against the cold oracle and against the reference pass.
func TestCampaignCheckFailsOnPerturbedResult(t *testing.T) {
	cfg := warmConfig(42, 0)
	cfg.MaxRuns = 2 * oracleStride
	prof, plan, _, err := campaignSetup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := runCampaignPass(cfg, prof, len(plan))
	ck := &checker{}
	checkPass(ck, "pass", plan, p, nil, oracleCheck(ck, cfg, plan, p.results, 0))
	if ck.failed != 0 || len(ck.msgs) != 0 {
		t.Fatalf("check failed on a served campaign: %v", ck.msgs)
	}

	bad := p
	bad.results = append([]faultinject.RunResult(nil), p.results...)
	bad.results[oracleStride].TestsFailed++
	ck = &checker{}
	oracleBad := oracleCheck(ck, cfg, plan, bad.results, 0)
	if !oracleBad[oracleStride] {
		t.Errorf("oracle accepted a perturbed result")
	}
	checkPass(ck, "pass", plan, bad, p.results, nil)
	if ck.failed != 1 {
		t.Errorf("perturbed result: %d runs failed against the reference pass, want 1", ck.failed)
	}

	bad.stats.Elided++
	ck = &checker{}
	checkPass(ck, "pass", plan, bad, p.results, nil)
	if ck.failed != len(plan) {
		t.Errorf("broken plane accounting: %d runs failed, want %d", ck.failed, len(plan))
	}
}

// TestWarmPoolCycles checks that campaign_warm serves every plan of its
// pool once per cycle, the same plan at j and j+warmPlans, and that the
// run's seed sets the plan it starts with.
func TestWarmPoolCycles(t *testing.T) {
	for seed := uint64(0); seed < 2*warmPlans; seed++ {
		seen := map[uint64]bool{}
		for j := 0; j < warmPlans; j++ {
			seen[warmConfig(seed, j).Seed] = true
			if a, b := warmConfig(seed, j).Seed, warmConfig(seed, j+warmPlans).Seed; a != b {
				t.Errorf("seed %d: campaign %d serves plan %d, campaign %d plan %d", seed, j, a, j+warmPlans, b)
			}
		}
		if len(seen) != warmPlans {
			t.Errorf("seed %d: a cycle serves %d distinct plans, want %d", seed, len(seen), warmPlans)
		}
	}
	if warmConfig(0, 0).Seed == warmConfig(1, 0).Seed {
		t.Errorf("seeds 0 and 1 start with the same plan")
	}
}

// TestRefusesOracleEnv checks that each oracle switch, even set empty,
// stops the benchmark.
func TestRefusesOracleEnv(t *testing.T) {
	if err := refuseOracleEnv(); err != nil {
		t.Skipf("environment already sets an oracle switch: %v", err)
	}
	for _, name := range oracleEnv {
		t.Run(name, func(t *testing.T) {
			t.Setenv(name, "")
			if refuseOracleEnv() == nil {
				t.Errorf("%s set but not refused", name)
			}
		})
	}
}
