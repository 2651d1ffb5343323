// Micro-benchmarks of the simulation hot loop: scheduler dispatch,
// synchronous IPC round trips, and end-to-end fault-campaign
// throughput. These are the numbers the hot-loop overhaul (ready
// queue, slot-indexed counters, fused dispatch) is measured against:
//
//	go test -bench 'Dispatch|IPCRoundTrip|CampaignThroughput' -benchmem
package osiris

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/kernel"
	"repro/internal/memlog"
	"repro/internal/seep"
)

// BenchmarkDispatch measures one scheduler dispatch: a lone process
// that yields in a loop, so every iteration is exactly one pick plus
// one context switch with no IPC and no clock advance.
func BenchmarkDispatch(b *testing.B) {
	const batch = 10000
	boots := b.N/batch + 1
	b.ResetTimer()
	for i := 0; i < boots; i++ {
		k := kernel.New(kernel.DefaultCostModel(), uint64(i+1))
		p := k.SpawnUser("yielder", func(ctx *kernel.Context) {
			for j := 0; j < batch; j++ {
				ctx.Yield()
			}
		})
		k.SetRootProcess(p.Endpoint())
		if res := k.Run(1 << 62); res.Outcome != kernel.OutcomeCompleted {
			b.Fatalf("outcome %v (%s)", res.Outcome, res.Reason)
		}
	}
}

// BenchmarkIPCRoundTrip measures one synchronous request/reply cycle
// between a user process and a single server — the sendrec ping-pong
// that dominates every simulated workload. Each iteration is two
// dispatches, one SendRec, one Receive and one Reply.
func BenchmarkIPCRoundTrip(b *testing.B) {
	const batch = 10000
	boots := b.N/batch + 1
	b.ResetTimer()
	for i := 0; i < boots; i++ {
		k := kernel.New(kernel.DefaultCostModel(), uint64(i+1))
		const epEcho = kernel.Endpoint(10)
		k.AddServer(epEcho, "echo", func(ctx *kernel.Context) {
			for {
				m := ctx.Receive()
				ctx.Reply(m.From, kernel.Message{A: m.A})
			}
		}, kernel.ServerConfig{})
		p := k.SpawnUser("client", func(ctx *kernel.Context) {
			for j := 0; j < batch; j++ {
				ctx.SendRec(epEcho, kernel.Message{A: int64(j)})
			}
		})
		k.SetRootProcess(p.Endpoint())
		if res := k.Run(1 << 62); res.Outcome != kernel.OutcomeCompleted {
			b.Fatalf("outcome %v (%s)", res.Outcome, res.Reason)
		}
	}
}

// BenchmarkCampaignThroughput measures end-to-end fault-injection
// campaign throughput in machine-setups per second on the serial path
// (workers=1), the unit of work behind Tables II/III. Runs fork from a
// warm image by default; BenchmarkCampaignThroughputColdBoot measures
// the same campaign with a full boot per run.
func BenchmarkCampaignThroughput(b *testing.B) {
	benchmarkCampaignThroughput(b, faultinject.Exec{})
}

func benchmarkCampaignThroughput(b *testing.B, exec faultinject.Exec) {
	profile, err := faultinject.Profile(42)
	if err != nil {
		b.Fatal(err)
	}
	runs := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := faultinject.RunCampaign(faultinject.CampaignConfig{
			Policy:         seep.PolicyEnhanced,
			Model:          faultinject.FailStop,
			Seed:           42,
			SamplesPerSite: 1,
			MaxRuns:        24,
			Workers:        1,
			Exec:           exec,
		}, profile)
		runs = res.Runs + res.Untriggered
	}
	b.StopTimer()
	if runs == 0 {
		b.Fatal("campaign executed no runs")
	}
	b.ReportMetric(float64(runs)*float64(b.N)/b.Elapsed().Seconds(), "runs/sec")
}

// checkpointBenchStore builds a FullCopy store with 64 string cells of
// ~1 KiB each — a component whose resident state is much larger than a
// typical request's write set — and returns the cells for dirtying.
func checkpointBenchStore(legacy bool) (*memlog.Store, []*memlog.Cell[string]) {
	s := memlog.NewStore("bench", memlog.FullCopy)
	s.SetLegacyCheckpoint(legacy)
	payload := strings.Repeat("x", 1024)
	cells := make([]*memlog.Cell[string], 64)
	for i := range cells {
		cells[i] = memlog.NewCell(s, fmt.Sprintf("cell-%02d", i), payload)
	}
	s.SetLogging(true)
	s.Checkpoint() // build the initial image outside the timed loop
	return s, cells
}

// benchCheckpoint measures one per-request checkpoint with a given
// fraction of the state dirtied between checkpoints.
func benchCheckpoint(b *testing.B, legacy bool, dirtyFrac float64) {
	s, cells := checkpointBenchStore(legacy)
	dirty := int(float64(len(cells)) * dirtyFrac)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < dirty; j++ {
			cells[j].Set(cells[j].Get())
		}
		s.Checkpoint()
	}
}

// BenchmarkCheckpointFullCopy is the legacy clone-everything path: the
// cost is the same no matter how little of the state changed.
func BenchmarkCheckpointFullCopy(b *testing.B) {
	for _, pct := range []int{10, 50, 100} {
		b.Run(fmt.Sprintf("dirty=%d%%", pct), func(b *testing.B) {
			benchCheckpoint(b, true, float64(pct)/100)
		})
	}
}

// BenchmarkCheckpointIncremental is the dirty-set path: cost tracks the
// fraction of containers written since the last checkpoint.
func BenchmarkCheckpointIncremental(b *testing.B) {
	for _, pct := range []int{10, 50, 100} {
		b.Run(fmt.Sprintf("dirty=%d%%", pct), func(b *testing.B) {
			benchCheckpoint(b, false, float64(pct)/100)
		})
	}
}

// BenchmarkRollbackDirty measures restoring a checkpoint after a
// request dirtied 10% of the state: the incremental path restores only
// the dirty containers instead of every container.
func BenchmarkRollbackDirty(b *testing.B) {
	for _, legacy := range []bool{true, false} {
		name := "incremental"
		if legacy {
			name = "legacy"
		}
		b.Run(name, func(b *testing.B) {
			s, cells := checkpointBenchStore(legacy)
			dirty := len(cells) / 10
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < dirty; j++ {
					cells[j].Set(cells[j].Get())
				}
				s.Rollback()
			}
		})
	}
}
