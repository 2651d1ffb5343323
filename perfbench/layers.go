package main

import (
	"fmt"
	"time"

	"repro/internal/audit"
	"repro/internal/boot"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/kernel"
	"repro/internal/memlog"
	"repro/internal/seep"
	"repro/internal/testsuite"
	"repro/internal/usr"
)

// ctrs are the simulator counters the ledger reads from a machine:
// dispatches, message hops, process creations, instrumented stores (all
// and undo-logged) and component recoveries.
type ctrs struct{ disp, hops, procs, stores, logged, recov float64 }

type counterSource interface{ Get(name string) uint64 }

func readCtrs(c counterSource) ctrs {
	return ctrs{
		disp:   float64(c.Get("kernel.dispatches")),
		hops:   float64(c.Get("kernel.msg_hops")),
		procs:  float64(c.Get("kernel.procs_created")),
		stores: float64(c.Get("memlog.stores_total")),
		logged: float64(c.Get("memlog.stores_logged")),
		recov:  float64(c.Get("core.recoveries")),
	}
}

func (a ctrs) add(b ctrs) ctrs {
	return ctrs{a.disp + b.disp, a.hops + b.hops, a.procs + b.procs, a.stores + b.stores, a.logged + b.logged, a.recov + b.recov}
}

func (a ctrs) scale(f float64) ctrs {
	return ctrs{a.disp * f, a.hops * f, a.procs * f, a.stores * f, a.logged * f, a.recov * f}
}

func (a ctrs) sub(b ctrs) ctrs { return a.add(b.scale(-1)) }

// layerCosts are the unit costs of the layers under the workloads,
// measured one layer at a time through its public functions.
type layerCosts struct {
	dispatchNS                             float64
	ipcRoundTripNS, ipcRoundTripAllocs     float64
	hopNS                                  float64
	syscallNS, syscallAllocs               float64
	syscallNoiseNS                         float64
	storeLoggedNS, storeClosedNS           float64
	checkpointNS, rollbackNS               float64
	fpCleanNS, fpDirty10NS, fpStructMapNS  float64
	crashRecoveryUS, crashRecoveryAllocs   float64
	forkWaitUS                             float64
	procSelfNS                             float64
	auditUS                                float64
	coldBootMS, captureMS, forkMS          float64
	forkAllocs, fingerprintUS, snapshotKiB float64
	suiteMS, suiteHops, suiteProcs         float64
}

const (
	// microBudget is how long each layer is measured; every layer takes
	// at least minReps samples and reports their median.
	microBudget = 150 * time.Millisecond
	minReps     = 3
)

// repeat calls fn at least minReps times and until budget has passed,
// and returns the median of each value fn reports.
func repeat(budget time.Duration, fn func() []float64) []float64 {
	var samples [][]float64
	start := time.Now()
	for len(samples) < minReps || time.Since(start) < budget {
		samples = append(samples, fn())
	}
	out := make([]float64, len(samples[0]))
	for i := range out {
		col := make([]float64, len(samples))
		for j, s := range samples {
			col[j] = s[i]
		}
		out[i] = median(col)
	}
	return out
}

// machineFn builds and runs a machine that performs n operations of one
// kind and returns the machine's counters.
type machineFn func(n int) (ctrs, error)

// perOp runs fn(0) and fn(n) back to back, repeatedly, and returns the
// host nanoseconds, heap allocations and counter increments per
// operation of the n operations: the cost of building the machine
// cancels out.
func perOp(tr *tracer, ck *checker, name string, n int, fn machineFn) (ns, allocs float64, per ctrs) {
	var failure error
	v := repeat(microBudget, func() []float64 {
		var c0, c1 ctrs
		var e0, e1 error
		d0, a0 := tr.measure(name, func() { c0, e0 = fn(0) })
		d1, a1 := tr.measure(name, func() { c1, e1 = fn(n) })
		if e0 != nil {
			failure = e0
		}
		if e1 != nil {
			failure = e1
		}
		per = c1.sub(c0).scale(1 / float64(n))
		return []float64{float64(d1-d0) / float64(n), (float64(a1) - float64(a0)) / float64(n)}
	})
	ck.check(failure == nil, "%s: %v", name, failure)
	return v[0], v[1], per
}

// yieldMachine is a bare kernel with one process that yields n times:
// every yield is one scheduler dispatch.
func yieldMachine(n int) (ctrs, error) {
	k := kernel.New(kernel.DefaultCostModel(), 1)
	p := k.SpawnUser("yielder", func(ctx *kernel.Context) {
		for j := 0; j < n; j++ {
			ctx.Yield()
		}
	})
	k.SetRootProcess(p.Endpoint())
	if res := k.Run(1 << 62); res.Outcome != kernel.OutcomeCompleted {
		return ctrs{}, fmt.Errorf("yield machine: %v (%s)", res.Outcome, res.Reason)
	}
	return readCtrs(k.Counters()), nil
}

// echoMachine is a bare kernel with an echo server and a client making
// n synchronous round trips to it.
func echoMachine(n int) (ctrs, error) {
	k := kernel.New(kernel.DefaultCostModel(), 1)
	const epEcho = kernel.Endpoint(10)
	k.AddServer(epEcho, "echo", func(ctx *kernel.Context) {
		for {
			m := ctx.Receive()
			ctx.Reply(m.From, kernel.Message{A: m.A})
		}
	}, kernel.ServerConfig{})
	p := k.SpawnUser("client", func(ctx *kernel.Context) {
		for j := 0; j < n; j++ {
			ctx.SendRec(epEcho, kernel.Message{A: int64(j)})
		}
	})
	k.SetRootProcess(p.Endpoint())
	if res := k.Run(1 << 62); res.Outcome != kernel.OutcomeCompleted {
		return ctrs{}, fmt.Errorf("echo machine: %v (%s)", res.Outcome, res.Reason)
	}
	return readCtrs(k.Counters()), nil
}

// osMachine boots the whole OS with cfg and an init process that calls
// op n times; arm, when set, instruments the machine before it runs.
func osMachine(cfg core.Config, op func(p *usr.Proc) kernel.Errno, arm func(*boot.System)) machineFn {
	return func(n int) (ctrs, error) {
		errno := kernel.OK
		sys := boot.Boot(boot.Options{Config: cfg}, func(p *usr.Proc) int {
			for j := 0; j < n; j++ {
				if e := op(p); e != kernel.OK {
					errno = e
					return 1
				}
			}
			return 0
		})
		if arm != nil {
			arm(sys)
		}
		res := sys.Run(faultinject.RunLimit)
		if res.Outcome != kernel.OutcomeCompleted || errno != kernel.OK {
			return ctrs{}, fmt.Errorf("machine: %v (%s), errno %v", res.Outcome, res.Reason, errno)
		}
		return readCtrs(sys.Kernel().Counters()), nil
	}
}

func getPID(p *usr.Proc) kernel.Errno {
	_, _, e := p.GetPID()
	return e
}

func forkWait(p *usr.Proc) kernel.Errno {
	if _, e := p.Fork(func(*usr.Proc) int { return 0 }); e != kernel.OK {
		return e
	}
	_, _, e := p.Wait()
	return e
}

// dsPut stores a key in DS; its error is ignored because the crash
// layer's recovery answers faulted requests with an error code.
func dsPut(p *usr.Proc) kernel.Errno {
	p.DsPut("k", "v")
	return kernel.OK
}

// crashDSPut makes every DS put fail-stop DS after applying the put.
func crashDSPut(sys *boot.System) {
	sys.Kernel().SetPointHook(func(_ kernel.Endpoint, _, site string) {
		if site == "ds.put.applied" {
			panic("perfbench: injected fail-stop fault")
		}
	})
}

// suiteOptions is the machine every campaign run uses: the enhanced
// policy, the whole test-suite registry and heartbeats.
func suiteOptions(seed uint64) boot.Options {
	reg := usr.NewRegistry()
	testsuite.Register(reg)
	return boot.Options{
		Config:     core.Config{Policy: seep.PolicyEnhanced, Seed: seed},
		Registry:   reg,
		Heartbeats: true,
	}
}

// measureLayers measures the unit cost of every layer.
func measureLayers(tr *tracer, seed uint64, ck *checker) layerCosts {
	id := tr.begin("ledger.layers")
	defer tr.end(id)
	var lc layerCosts
	osCfg := core.Config{Policy: seep.PolicyEnhanced, Seed: seed}

	var per ctrs
	lc.dispatchNS, _, per = perOp(tr, ck, "kernel.dispatch", 10000, yieldMachine)
	lc.dispatchNS /= per.disp
	lc.ipcRoundTripNS, lc.ipcRoundTripAllocs, per = perOp(tr, ck, "kernel.ipc_roundtrip", 10000, echoMachine)
	lc.hopNS = (lc.ipcRoundTripNS - per.disp*lc.dispatchNS) / per.hops
	lc.syscallNS, lc.syscallAllocs, _ = perOp(tr, ck, "kernel.syscall", 2000, osMachine(osCfg, getPID, nil))
	noisy := osCfg
	noisy.IPCFaults = kernel.IPCFaultConfig{DropBP: 50, DupBP: 50, DelayBP: 50, ReorderBP: 50, CorruptBP: 50}
	noisy.IPCFaultSeed = seed
	noisy.IPCTimeoutCycles = core.DefaultIPCTimeoutCycles
	lc.syscallNoiseNS, _, _ = perOp(tr, ck, "kernel.syscall.ipcnoise", 2000, osMachine(noisy, getPID, nil))

	measureMemlog(tr, &lc)

	fwNS, _, fw := perOp(tr, ck, "servers.fork_wait", 50, osMachine(osCfg, forkWait, nil))
	lc.forkWaitUS = fwNS / 1e3
	lc.procSelfNS = (fwNS - fw.disp*lc.dispatchNS - fw.hops*lc.hopNS -
		fw.logged*lc.storeLoggedNS - (fw.stores-fw.logged)*lc.storeClosedNS) / fw.procs

	measureCrashRecovery(tr, ck, osCfg, &lc)
	measureBoot(tr, ck, seed, &lc)
	measureAudit(tr, ck, seed, &lc)
	return lc
}

// measureCrashRecovery times a DS put loop whose every put fail-stops DS
// against the same loop without faults; the difference per recovery is
// one crash-recovery cycle: fail-stop, restart, rollback and the error
// reply.
func measureCrashRecovery(tr *tracer, ck *checker, cfg core.Config, lc *layerCosts) {
	const puts = 20
	clean := osMachine(cfg, dsPut, nil)
	faulty := osMachine(cfg, dsPut, crashDSPut)
	var failure error
	v := repeat(microBudget, func() []float64 {
		var c1 ctrs
		var e0, e1 error
		d0, a0 := tr.measure("core.dsput", func() { _, e0 = clean(puts) })
		d1, a1 := tr.measure("core.dsput_crash", func() { c1, e1 = faulty(puts) })
		switch {
		case e0 != nil:
			failure = e0
		case e1 != nil:
			failure = e1
		case c1.recov == 0:
			failure = fmt.Errorf("no recovery happened")
			c1.recov = 1
		}
		return []float64{float64(d1-d0) / c1.recov / 1e3, (float64(a1) - float64(a0)) / c1.recov}
	})
	ck.check(failure == nil, "core.crash_recovery: %v", failure)
	lc.crashRecoveryUS, lc.crashRecoveryAllocs = v[0], v[1]
}

// measureBoot measures a cold boot of the campaign machine to its
// post-install barrier, the capture of that barrier, a fork from it, the
// fork's first state fingerprint, and the fault-free suite the fork then
// runs to the end.
func measureBoot(tr *tracer, ck *checker, seed uint64, lc *layerCosts) {
	var failure error
	v := repeat(2*microBudget, func() []float64 {
		var (
			opts    boot.Options
			sys     *boot.System
			report  testsuite.Report
			reached bool
		)
		cold := tr.do("boot.cold_boot", func() {
			opts = suiteOptions(seed)
			sys = boot.Boot(opts, testsuite.RunnerInit(&report))
			reached = sys.Kernel().RunToBarrier(faultinject.RunLimit)
		})
		if !reached {
			failure = fmt.Errorf("cold boot never reached the barrier")
			sys.Shutdown("perfbench: no barrier")
			return make([]float64, 9)
		}
		var snap *boot.Snapshot
		var err error
		capture := tr.do("boot.capture", func() { snap, err = boot.CaptureParked(sys, opts) })
		sys.Shutdown("perfbench: captured")
		if err != nil {
			failure = err
			return make([]float64, 9)
		}
		var fork *boot.System
		var suite testsuite.Report
		forkD, forkA := tr.measure("boot.fork", func() {
			fork, err = snap.Fork(boot.ForkParams{Seed: seed}, testsuite.RunnerResume(&suite))
		})
		if err != nil {
			failure = err
			return make([]float64, 9)
		}
		fp := tr.do("boot.fingerprint", func() { _, err = fork.StateFingerprint() })
		if err != nil {
			failure = err
		}
		before := readCtrs(fork.Kernel().Counters())
		var res kernel.Result
		suiteD := tr.do("testsuite.suite", func() { res = fork.Run(faultinject.RunLimit) })
		if res.Outcome != kernel.OutcomeCompleted || !suite.AllPassed() {
			failure = fmt.Errorf("fault-free suite: %v (%s), %d of %d tests passed", res.Outcome, res.Reason, suite.Passed, suite.Ran)
		}
		d := readCtrs(fork.Kernel().Counters()).sub(before)
		return []float64{ms(cold), ms(capture), ms(forkD), float64(forkA), float64(fp) / 1e3,
			ms(suiteD), d.hops, d.procs, float64(snap.SizeBytes()) / 1024}
	})
	ck.check(failure == nil, "boot: %v", failure)
	lc.coldBootMS, lc.captureMS, lc.forkMS, lc.forkAllocs, lc.fingerprintUS = v[0], v[1], v[2], v[3], v[4]
	lc.suiteMS, lc.suiteHops, lc.suiteProcs, lc.snapshotKiB = v[5], v[6], v[7], v[8]
}

// measureAudit times one consistency audit — capture plus every
// cross-server check — of a machine booted to its barrier.
func measureAudit(tr *tracer, ck *checker, seed uint64, lc *layerCosts) {
	const batch = 20
	var report testsuite.Report
	sys := boot.Boot(suiteOptions(seed), testsuite.RunnerInit(&report))
	defer sys.Shutdown("perfbench: audit measured")
	if !sys.Kernel().RunToBarrier(faultinject.RunLimit) {
		ck.check(false, "audit: machine never reached the barrier")
		return
	}
	violations := 0
	v := repeat(microBudget, func() []float64 {
		d := tr.do("audit.check", func() {
			for i := 0; i < batch; i++ {
				violations += len(audit.Check(audit.Capture(sys.OS)))
			}
		})
		return []float64{float64(d) / batch / 1e3}
	})
	ck.check(violations == 0, "audit: %d violations on a fault-free machine", violations)
	lc.auditUS = v[0]
}

// fpEntry is a struct value, which the store fingerprints through its
// reflective encoding.
type fpEntry struct {
	Owner int64
	Name  string
}

// measureMemlog measures instrumented stores with the recovery window
// open and closed, checkpoint and rollback of a 16-store window, and the
// rolling state fingerprint.
func measureMemlog(tr *tracer, lc *layerCosts) {
	const stores = 200000
	st := memlog.NewStore("bench", memlog.Optimized)
	cell := memlog.NewCell(st, "x", 0)
	setLoop := func(name string, logging bool) float64 {
		st.SetLogging(logging)
		return repeat(microBudget, func() []float64 {
			d := tr.do(name, func() {
				for i := 0; i < stores; i++ {
					cell.Set(i)
					if i%1024 == 0 {
						st.Checkpoint()
					}
				}
			})
			return []float64{float64(d) / stores}
		})[0]
	}
	lc.storeLoggedNS = setLoop("memlog.store_logged", true)
	lc.storeClosedNS = setLoop("memlog.store_closed", false)

	// A window's stores cost less than stores into a long log, so the
	// checkpoint and rollback costs subtract the per-store cost measured
	// in windows of the same shape: 32-store minus 16-store windows.
	const windows = 20000
	st.SetLogging(true)
	windowLoop := func(name string, size int, end func()) float64 {
		return repeat(microBudget, func() []float64 {
			d := tr.do(name, func() {
				for i := 0; i < windows; i++ {
					for j := 0; j < size; j++ {
						cell.Set(j)
					}
					end()
				}
			})
			return []float64{float64(d) / windows}
		})[0]
	}
	w16 := windowLoop("memlog.checkpoint", 16, st.Checkpoint)
	w32 := windowLoop("memlog.checkpoint", 32, st.Checkpoint)
	windowStoreNS := (w32 - w16) / 16
	lc.checkpointNS = w16 - 16*windowStoreNS
	lc.rollbackNS = windowLoop("memlog.rollback", 16, st.Rollback) - 16*windowStoreNS

	const containers, elems = 100, 1024
	fst := memlog.NewStore("frames", memlog.Optimized)
	slices := make([]*memlog.Slice[int32], containers)
	for i := range slices {
		slices[i] = memlog.NewSlice[int32](fst, fmt.Sprintf("frames%03d", i))
		for j := 0; j < elems; j++ {
			slices[i].Append(int32(i + j))
		}
	}
	sst := memlog.NewStore("table", memlog.Optimized)
	table := memlog.NewMap[int64, fpEntry](sst, "table")
	for i := int64(0); i < elems; i++ {
		table.Set(i, fpEntry{Owner: i, Name: fmt.Sprintf("proc%d", i)})
	}
	fpLoop := func(name string, calls int, s *memlog.Store, dirty func(i int)) float64 {
		_, _ = s.Fingerprint() // cache every container's mix first
		return repeat(microBudget, func() []float64 {
			d := tr.do(name, func() {
				for i := 0; i < calls; i++ {
					dirty(i)
					_, _ = s.Fingerprint() // containers of encodable types cannot fail
				}
			})
			return []float64{float64(d) / float64(calls)}
		})[0]
	}
	lc.fpCleanNS = fpLoop("memlog.fingerprint.clean", 20000, fst, func(int) {})
	lc.fpDirty10NS = fpLoop("memlog.fingerprint.dirty10", 2000, fst, func(i int) {
		for k := 0; k < containers/10; k++ {
			slices[k].Set(0, int32(i+k))
		}
	})
	lc.fpStructMapNS = fpLoop("memlog.fingerprint.structmap", 200, sst, func(i int) {
		table.Set(int64(i%elems), fpEntry{Owner: int64(i), Name: "proc"})
	})
}

// emit adds the layer costs to m.
func (lc layerCosts) emit(m metrics) {
	m.set("kernel.dispatch_ns", lc.dispatchNS, "ns")
	m.set("kernel.ipc_roundtrip_ns", lc.ipcRoundTripNS, "ns")
	m.set("kernel.ipc_roundtrip_allocs", lc.ipcRoundTripAllocs, "count")
	m.set("kernel.host_ns_per_hop", lc.hopNS, "ns")
	m.set("kernel.syscall_ns", lc.syscallNS, "ns")
	m.set("kernel.syscall_allocs", lc.syscallAllocs, "count")
	m.set("kernel.syscall_ns.ipcnoise", lc.syscallNoiseNS, "ns")
	m.set("memlog.store_logged_ns", lc.storeLoggedNS, "ns")
	m.set("memlog.store_closed_ns", lc.storeClosedNS, "ns")
	m.set("memlog.checkpoint_ns", lc.checkpointNS, "ns")
	m.set("memlog.rollback_ns", lc.rollbackNS, "ns")
	m.set("memlog.fingerprint_ns.clean", lc.fpCleanNS, "ns")
	m.set("memlog.fingerprint_ns.dirty10", lc.fpDirty10NS, "ns")
	m.set("memlog.fingerprint_ns.structmap", lc.fpStructMapNS, "ns")
	m.set("core.crash_recovery_us", lc.crashRecoveryUS, "us")
	m.set("core.crash_recovery_allocs", lc.crashRecoveryAllocs, "count")
	m.set("servers.fork_wait_us", lc.forkWaitUS, "us")
	m.set("audit.check_us", lc.auditUS, "us")
	m.set("boot.cold_boot_ms", lc.coldBootMS, "ms")
	m.set("boot.capture_ms", lc.captureMS, "ms")
	m.set("boot.fork_ms", lc.forkMS, "ms")
	m.set("boot.fork_allocs", lc.forkAllocs, "count")
	m.set("boot.fingerprint_us", lc.fingerprintUS, "us")
	m.set("boot.snapshot_kib", lc.snapshotKiB, "KiB")
	m.set("testsuite.suite_ms", lc.suiteMS, "ms")
	m.set("testsuite.msg_hops", lc.suiteHops, "count")
	m.set("testsuite.procs", lc.suiteProcs, "count")
}
