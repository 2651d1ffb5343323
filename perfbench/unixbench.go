package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/boot"
	"repro/internal/kernel"
	"repro/internal/seep"
	"repro/internal/unixbench"
)

// referenceJSON holds every Unixbench program's completed operations and
// virtual benchmark cycles at IterScale 1 under the enhanced policy. The
// simulated machine is deterministic and these figures do not depend on
// the seed, so every pass of every run must reproduce them exactly.
//
//go:embed reference.json
var referenceJSON []byte

type programRef struct {
	Ops    int    `json:"ops"`
	Cycles uint64 `json:"cycles"`
}

func loadReference() (map[string]programRef, error) {
	var ref map[string]programRef
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("unixbench reference: %w", err)
	}
	return ref, nil
}

func unixbenchConfig(seed uint64) unixbench.Config {
	return unixbench.Config{Policy: seep.PolicyEnhanced, Seed: seed, IterScale: 1, Workers: 1}
}

// programRun is one unixbench.RunOne on a fresh machine. The host time,
// final kernel clock and counters are filled in by traced passes only.
type programRun struct {
	res   unixbench.Result
	host  time.Duration
	clock uint64
	ctrs  ctrs
}

// unixbenchPass is one run of all twelve programs, one after another.
type unixbenchPass struct {
	progs   []programRun
	wall    time.Duration
	mallocs uint64
	bytes   uint64
}

// runUnixbenchPass runs every program once. With a tracer it records a
// span per program and reads each machine's clock and counters through
// Config.Hook.
func runUnixbenchPass(seed uint64, tr *tracer) unixbenchPass {
	benches := unixbench.All()
	p := unixbenchPass{progs: make([]programRun, len(benches))}
	cfg := unixbenchConfig(seed)
	var sys *boot.System
	if tr != nil {
		cfg.Hook = func(s *boot.System) { sys = s }
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	start := time.Now()
	for i, bench := range benches {
		if tr == nil {
			p.progs[i].res = unixbench.RunOne(bench, cfg)
			continue
		}
		id := tr.begin("unixbench.run")
		p.progs[i].res = unixbench.RunOne(bench, cfg)
		p.progs[i].host = tr.end(id)
		tr.tag(id, bench.Name)
		p.progs[i].clock = uint64(sys.Kernel().Now())
		p.progs[i].ctrs = readCtrs(sys.Kernel().Counters())
	}
	p.wall = time.Since(start)
	runtime.ReadMemStats(&b)
	p.mallocs = b.Mallocs - a.Mallocs
	p.bytes = b.TotalAlloc - a.TotalAlloc
	return p
}

// checkUnixbench requires every program of the pass to complete with
// exactly the reference operations and virtual cycles.
func checkUnixbench(ck *checker, label string, p unixbenchPass, ref map[string]programRef) {
	var bad []string
	for _, pr := range p.progs {
		r := pr.res
		want, ok := ref[r.Name]
		if !ok || r.Outcome != kernel.OutcomeCompleted || r.Ops != want.Ops || uint64(r.Cycles) != want.Cycles {
			bad = append(bad, fmt.Sprintf("%s (outcome %v, %d ops, %d cycles; want %d ops, %d cycles)",
				r.Name, r.Outcome, r.Ops, r.Cycles, want.Ops, want.Cycles))
		}
	}
	if len(p.progs) != len(ref) {
		bad = append(bad, fmt.Sprintf("%d programs ran, reference has %d", len(p.progs), len(ref)))
	}
	ck.ops(len(p.progs), len(bad), "%s: %v", label, bad)
}

// runUnixbenchE2E runs untimed warm-up passes (the set-up), then passes
// back to back for the run's time budget, and reports the end-to-end
// metrics. A run is one program on a fresh machine. The host's speed is
// measured before the first pass and after every pass, and each pass's
// time is converted into reference seconds with the mean of the speeds
// right before and right after it (see calib.go).
func runUnixbenchE2E(o options, ck *checker, w io.Writer) metrics {
	m := metrics{}
	ref, err := loadReference()
	if err != nil {
		ck.ops(1, 1, "%v", err)
		return m
	}
	speed := hostSpeed()
	var speeds, peaks []float64
	rssReset := true
	pass := func(label string, i int) (unixbenchPass, float64) {
		rssReset = resetPeakRSS() && rssReset
		p := runUnixbenchPass(o.seed, nil)
		peaks = append(peaks, peakRSSMiB())
		before := speed
		speed = hostSpeed()
		speeds = append(speeds, speed)
		checkUnixbench(ck, fmt.Sprintf("%s %d", label, i), p, ref)
		return p, (before + speed) / 2
	}
	var setup, rps, wallRPS, allocs, kib []float64
	for i := 0; i < setupReps; i++ {
		p, s := pass("warm-up pass", i)
		setup = append(setup, refSeconds(p.wall, s))
	}
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < o.seconds; n++ {
		p, s := pass("pass", n)
		progs := float64(len(p.progs))
		rps = append(rps, progs/refSeconds(p.wall, s))
		wallRPS = append(wallRPS, progs/p.wall.Seconds())
		allocs = append(allocs, float64(p.mallocs)/progs)
		kib = append(kib, float64(p.bytes)/progs/1024)
	}
	fmt.Fprintf(w, "%d passes; wall clock: runs_per_s %g; host speed median %.0f/s (reference %d/s)\n",
		len(rps), median(wallRPS), median(speeds), calRefPerS)
	m.set("runs_per_s", median(rps), "1/s")
	m.set("setup_s", median(setup), "s")
	m.set("allocs_per_op", median(allocs), "count")
	m.set("alloc_kib_per_op", median(kib), "KiB")
	if !rssReset {
		fmt.Fprintln(w, peakRSSNote)
	}
	m.set("peak_rss_mib", median(peaks), "MiB")
	return m
}

// unixbenchLedger accumulates the traced passes of the unixbench
// workload.
type unixbenchLedger struct {
	seed uint64
	ref  map[string]programRef
	// untraced and traced are runs/s of alternating untraced and traced
	// passes; passMS is the traced passes' wall time.
	untraced, traced []float64
	passMS           []float64
	programMS        map[string][]float64
	simMcyclesPerS   []float64
	last             unixbenchPass
}

func newUnixbenchLedger(seed uint64, ck *checker) *unixbenchLedger {
	ref, err := loadReference()
	if err != nil {
		ck.ops(1, 1, "%v", err)
		return nil
	}
	return &unixbenchLedger{seed: seed, ref: ref, programMS: map[string][]float64{}}
}

func (l *unixbenchLedger) pass(tr *tracer, ck *checker) {
	u := runUnixbenchPass(l.seed, nil)
	checkUnixbench(ck, "unixbench untraced", u, l.ref)
	l.untraced = append(l.untraced, float64(len(u.progs))/u.wall.Seconds())

	id := tr.begin("unixbench.pass")
	p := runUnixbenchPass(l.seed, tr)
	tr.end(id)
	checkUnixbench(ck, "unixbench traced", p, l.ref)
	l.traced = append(l.traced, float64(len(p.progs))/p.wall.Seconds())
	l.passMS = append(l.passMS, ms(p.wall))
	var clocks uint64
	for _, pr := range p.progs {
		l.programMS[pr.res.Name] = append(l.programMS[pr.res.Name], ms(pr.host))
		clocks += pr.clock
	}
	l.simMcyclesPerS = append(l.simMcyclesPerS, float64(clocks)/1e6/p.wall.Seconds())
	l.last = p
}

// totals sums the last traced pass's machine counters.
func (l *unixbenchLedger) totals() ctrs {
	var t ctrs
	for _, pr := range l.last.progs {
		t = t.add(pr.ctrs)
	}
	return t
}
