//go:build linux

package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The reference clock measures how fast THIS MACHINE is while a workload
// runs, so that the end-to-end metrics can be reported at a fixed machine
// speed instead of whatever speed the box had that minute.
//
// Why: the reference box is a 2-vCPU VM on a shared host. A fixed
// random-access loop on it runs at one of two speeds ~25-30% apart,
// flipping every few seconds to minutes as neighbours come and go, and
// every CPU-bound figure of this repository flips with it (correlation
// -0.86 between /pair throughput and this clock over 150 s). Ten runs that
// straddle a flip have a run-to-run spread of 30%: wider than the largest
// bound a metric may carry, so the raw numbers can gate nothing.
//
// How: one thread pinned to each CPU runs a short burst of a fixed kernel
// — an xorshift generator indexing an 8 MB table, which is what a walk
// step looks like to the memory system — every 20 ms (2% of the core) and
// accumulates the thread's CPU time per step. The kernel shares no code
// with the repository, so no change to the repository can move it. The
// cost of a step over a phase, divided by the frozen nominal cost, is the
// machine's slowdown during that phase; times are divided by it and rates
// multiplied. In the calibration run (180 s of cold /pair queries) that
// took the spread of 10 s windows from a CV of 7.4% to 2.9%; a single
// unpinned thread reached 3.9%, and a cache-resident table 6.6% — the
// noise is the shared L3, not the core. The factor is reported per layer
// as machine.slowdown and in every run's notes with the raw figures.
type refClock struct {
	ns, steps atomic.Int64
	frozen    atomic.Int64 // ns by which gaps between bursts exceeded twice the period, all threads
	stop      chan struct{}
	done      sync.WaitGroup
}

const (
	// nominalStepNs is the reference step's cost on the reference box in
	// its fast state with a workload running. Frozen: changing it rescales
	// every end-to-end metric.
	nominalStepNs = 17.0
	refTableWords = 1 << 20 // 8 MB of uint64
	refBurstSteps = 20000   // ~0.35 ms
	refPeriod     = 20 * time.Millisecond
)

var refSink atomic.Uint64 // keeps the kernel's result alive

// threadCPU is the calling thread's consumed CPU time.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0) //nolint:errcheck // cannot fail for this clock id
	return time.Duration(ts.Nano())
}

func startRefClock() *refClock {
	c := &refClock{stop: make(chan struct{})}
	table := make([]uint64, refTableWords)
	for i := range table {
		table[i] = uint64(i)
	}
	for cpu := 0; cpu < runtime.NumCPU(); cpu++ {
		c.done.Add(1)
		go c.run(cpu, table)
	}
	return c
}

// run is one reference thread. CPU time is per thread, so the goroutine
// must stay on its thread, and the thread on its CPU: a neighbour slows
// the cores of this VM unequally.
func (c *refClock) run(cpu int, table []uint64) {
	defer c.done.Done()
	// Never unlocked: the goroutine's exit then ends the thread, instead
	// of handing a thread pinned to one CPU back to the scheduler.
	runtime.LockOSThread()
	var mask [16]uint64 // 1024 CPUs
	mask[cpu/64] = 1 << (cpu % 64)
	// Pinning can fail under a restricted cpuset; the thread then floats,
	// which measures a little less sharply and nothing wrong.
	syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))) //nolint:errcheck
	tick := time.NewTicker(refPeriod)
	defer tick.Stop()
	x := uint64(88172645463325252)
	var sum uint64
	last := time.Now()
	for {
		// A burst that starts long after it was due means this thread —
		// and with it, most likely, the whole VM — did not run.
		if gap := time.Since(last) - 2*refPeriod; gap > 0 {
			c.frozen.Add(int64(gap))
		}
		last = time.Now()
		t0 := threadCPU()
		for i := 0; i < refBurstSteps; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			sum += table[x&(refTableWords-1)]
		}
		c.ns.Add(int64(threadCPU() - t0))
		c.steps.Add(refBurstSteps)
		select {
		case <-c.stop:
			refSink.Add(sum)
			return
		case <-tick.C:
		}
	}
}

func (c *refClock) close() {
	close(c.stop)
	c.done.Wait()
}

// stolen is the CPU time the hypervisor has withheld from this VM since
// boot (the steal column of /proc/stat, all CPUs), 0 where there is none.
// The reference clock cannot see it: a descheduled vCPU stops the
// thread's CPU clock too.
func stolen() time.Duration {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 {
		return 0
	}
	ticks, _ := strconv.ParseInt(f[8], 10, 64)
	const userHz = 100
	return time.Duration(ticks) * time.Second / userHz
}

// machineState is a reading, at one instant, of the reference clock's
// running totals, the stolen CPU time and the process's own CPU time: a
// phase is measured between two of them.
type machineState struct {
	refNs, refSteps int64
	frozen          time.Duration
	stolen          time.Duration
	cpu             time.Duration // process user+system CPU, reference threads included
	at              time.Time
}

func (c *refClock) state() machineState {
	return machineState{c.ns.Load(), c.steps.Load(), time.Duration(c.frozen.Load()), stolen(), cpuTime(), time.Now()}
}

// disturbance is what happened to the machine during a phase that no
// normalisation can undo.
type disturbance struct {
	steal  float64       // share of all CPU time the hypervisor withheld
	frozen time.Duration // time the reference threads, and so probably the whole VM, did not run (summed over threads)
}

// A phase is void when the machine was taken away from it: more than
// maxSteal of the CPU time stolen, or the reference threads frozen for
// more than maxFrozen of it. A quiet ten seconds on the reference box lose
// under 2% and freeze for 0-50 ms (up to 250 ms when the workload
// saturates both CPUs and the reference threads queue behind it); the bad
// ones lose 8-60% (12% doubled the open loop's p50) or stop for the better
// part of a second, which an open loop reads as a p95 of 90 ms.
const (
	maxSteal  = 0.05
	maxFrozen = 0.05
)

func (d disturbance) String() string {
	return fmt.Sprintf("%.1f%% of the CPU time stolen, frozen for %v", 100*d.steal, d.frozen.Round(time.Millisecond))
}

// phase is what the clocks read between two machine states.
type phase struct {
	end     time.Time
	elapsed time.Duration
	cpu     time.Duration // process CPU less the reference clock's own
	slow    float64       // the machine's slowdown against nominal; 1 when no reference burst fell inside the phase
	dist    disturbance
}

func (p phase) void() bool {
	return p.dist.steal > maxSteal || p.dist.frozen.Seconds() > maxFrozen*p.elapsed.Seconds()
}

// until measures the phase from m to n.
func (m machineState) until(n machineState) phase {
	p := phase{end: n.at, elapsed: n.at.Sub(m.at), cpu: n.cpu - m.cpu, slow: 1}
	if steps := n.refSteps - m.refSteps; steps > 0 {
		refCPU := time.Duration(n.refNs - m.refNs)
		p.cpu -= refCPU
		p.slow = float64(refCPU) / float64(steps) / nominalStepNs
	}
	p.dist.steal = ratio(float64(n.stolen-m.stolen), float64(runtime.NumCPU())*float64(p.elapsed))
	p.dist.frozen = n.frozen - m.frozen
	return p
}
