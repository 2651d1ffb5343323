package main

import (
	"runtime"
	"strconv"
	"time"
)

// The end-to-end times are reported in reference seconds. Host speed on
// a shared machine moves by a third over tens of seconds with whatever
// else runs on the same cores: on a 2-vCPU Xeon, one 40 s
// campaign_ipcnoise run spent all its time near 37 runs/s and the next
// one near 55. So the benchmark times a fixed calibration loop right
// before and right after each measured interval, and converts the
// interval into the time it would have taken on a host that runs the
// loop calRefPerS times a second. Over ten runs of each workload on that
// host, the middle half of the wall-clock runs_per_s spread by 24% to 52%
// of the median, and of runs_per_s in reference seconds by 4% to 8%.
//
// The loop uses only the standard library, never the system under test,
// so a change to the system moves the figures in full. Like the
// simulator it allocates small objects, chases pointers and hashes
// strings.
const (
	calRefPerS = 100
	calSpan    = 100 * time.Millisecond
)

type calNode struct {
	left, right *calNode
	key         uint64
	name        string
}

func (n *calNode) insert(key uint64) *calNode {
	if n == nil {
		return &calNode{key: key, name: strconv.FormatUint(key, 36)}
	}
	if key < n.key {
		n.left = n.left.insert(key)
	} else {
		n.right = n.right.insert(key)
	}
	return n
}

func (n *calNode) weight() int {
	if n == nil {
		return 0
	}
	return n.left.weight() + n.right.weight() + len(n.name)
}

// calSink keeps the loop's results live.
var calSink int

// calIteration builds and walks a 20,000-node search tree over a fixed
// key sequence and fills a 5,000-entry string-keyed map: about as much
// memory as one Unixbench program allocates, so that the loop feels the
// cache and memory contention the workloads feel.
func calIteration() {
	var root *calNode
	x := uint64(1)
	for i := 0; i < 20000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		root = root.insert(x >> 40)
	}
	m := make(map[string]int)
	for i := 0; i < 5000; i++ {
		m[strconv.Itoa(i)] += i
	}
	calSink += root.weight() + len(m)
}

// hostSpeed runs calIteration for calSpan and returns iterations per
// second. It collects the garbage before and after, outside its timing,
// so that the loop and the interval measured next both start on a clean
// heap.
func hostSpeed() float64 {
	runtime.GC()
	start := time.Now()
	n := 0
	for time.Since(start) < calSpan {
		calIteration()
		n++
	}
	speed := float64(n) / time.Since(start).Seconds()
	runtime.GC()
	return speed
}

// refSeconds converts d, measured while the host ran the calibration
// loop speed times a second, into reference seconds.
func refSeconds(d time.Duration, speed float64) float64 {
	return d.Seconds() * speed / calRefPerS
}
