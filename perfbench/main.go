// Command perfbench is the OSIRIS reproduction's benchmark. It runs one
// workload in a closed loop with a single client, checks every output,
// and prints the end-to-end metrics (untraced run) or the per-layer
// ledger with its decomposition (traced run):
//
//	bash perfbench/run.sh --workload campaign_warm --seed 42 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 1 when any
// output check failed and 2 on a usage error or a refused environment.
// See README.md for the workloads, the metrics and the seeds.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Workload names.
const (
	wlCampaignWarm     = "campaign_warm"
	wlCampaignIPCNoise = "campaign_ipcnoise"
	wlUnixbench        = "unixbench"
)

var workloads = []string{wlCampaignWarm, wlCampaignIPCNoise, wlUnixbench}

// options are the command-line settings of one benchmark run.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	spans    string
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var secs, trace int
	fs.StringVar(&o.workload, "workload", wlCampaignWarm, "workload: "+strings.Join(workloads, ", "))
	fs.Uint64Var(&o.seed, "seed", 42, "workload seed (42 is the default; 7 is held out)")
	fs.IntVar(&secs, "seconds", 30, "measurement time in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end measurement")
	fs.StringVar(&o.spans, "spans", "", "file for the traced run's spans (default .bench_build/spans-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	known := false
	for _, w := range workloads {
		known = known || w == o.workload
	}
	if !known {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloads, ", "))
	}
	if secs < 1 {
		return o, fmt.Errorf("--seconds must be at least 1, got %d", secs)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	o.seconds = time.Duration(secs) * time.Second
	o.trace = trace == 1
	if o.spans == "" {
		o.spans = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", o.workload, o.seed))
	}
	return o, nil
}

// oracleEnv lists the process-wide switches that silently replace a
// workload's serving path with an equivalence oracle.
var oracleEnv = []string{
	"OSIRIS_COLD_BOOT",
	"OSIRIS_NO_ELIDE",
	"OSIRIS_SNAPSHOT_CACHE",
	"OSIRIS_LEGACY_SCHED",
	"OSIRIS_LEGACY_CHECKPOINT",
}

// refuseOracleEnv fails when any oracle switch is set, even to the
// empty string: a measurement taken under one would describe the oracle
// rather than the system.
func refuseOracleEnv() error {
	var set []string
	for _, name := range oracleEnv {
		if _, ok := os.LookupEnv(name); ok {
			set = append(set, name)
		}
	}
	if len(set) > 0 {
		return fmt.Errorf("refusing to run with %s set: it swaps the workload for an oracle path; unset it", strings.Join(set, ", "))
	}
	return nil
}

// hostStamp identifies where and on what a result was measured.
type hostStamp struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	Workload   string `json:"workload"`
	Trace      bool   `json:"trace"`
}

func newHostStamp(o options) hostStamp {
	return hostStamp{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
		Seed:       o.seed,
		Workload:   o.workload,
		Trace:      o.trace,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD of a git checkout in the working directory by
// reading .git directly; a source tree without .git reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string) { m[name] = metric{value, unit} }

// result is the benchmark's final output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// checker counts the operations a run attempted and those whose output
// check failed, keeping a message for each failure.
type checker struct {
	attempted, failed int
	msgs              []string
}

// ops records n attempted operations of which bad failed their check.
func (c *checker) ops(n, bad int, format string, args ...any) {
	c.attempted += n
	if bad > 0 {
		c.failed += bad
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

// note records a failure message for operations counted elsewhere.
func (c *checker) note(format string, args ...any) {
	c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
}

// check records one operation whose check passed when ok holds.
func (c *checker) check(ok bool, format string, args ...any) {
	bad := 0
	if !ok {
		bad = 1
	}
	c.ops(1, bad, format, args...)
}

// run executes the selected workload and returns its result; the
// human-readable report goes to w.
func run(o options, w io.Writer) (result, error) {
	// One client at Workers: 1 leaves the garbage collector as the only
	// other runnable work. Given a second core it runs there, and the
	// figures then move with whether the host keeps that core free.
	runtime.GOMAXPROCS(1)
	stamp := newHostStamp(o)
	if line, err := json.Marshal(stamp); err == nil {
		fmt.Fprintf(w, "host: %s\n", line)
	}
	ck := &checker{}
	var m metrics
	if o.trace {
		tr := newTracer()
		m = runLedger(o, tr, ck, w)
		tr.printSelfTimes(w)
		if err := tr.write(o.spans, stamp); err != nil {
			return result{}, err
		}
		fmt.Fprintf(w, "spans written to %s\n", o.spans)
	} else {
		switch o.workload {
		case wlCampaignWarm:
			m = runCampaignE2E(warmWorkload, o, ck, w)
		case wlCampaignIPCNoise:
			m = runCampaignE2E(ipcNoiseWorkload, o, ck, w)
		case wlUnixbench:
			m = runUnixbenchE2E(o, ck, w)
		}
		if ck.attempted > 0 {
			errFrac := float64(ck.failed) / float64(ck.attempted)
			fmt.Fprintf(w, "error_frac: %g (%d of %d operations failed their output check)\n", errFrac, ck.failed, ck.attempted)
			m.set("ok_frac", 1-errFrac, "frac")
		}
	}
	for _, msg := range ck.msgs {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", msg)
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "metric %s %g %s\n", name, m[name].Value, m[name].Unit)
	}
	if ck.attempted == 0 {
		return result{}, errors.New("no operation was attempted")
	}
	return result{Correct: ck.failed == 0, Attempted: ck.attempted, Failed: ck.failed, Metrics: m}, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := refuseOracleEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
