// Package cluster simulates the Spark cluster of the paper's evaluation
// (10 machines × 16 cores, 377 GB RAM each) on a single process.
//
// The substitution (ARCHITECTURE.md, layer 4) keeps what the paper's systems
// comparison actually measures: degree of parallelism (machines × cores),
// network cost of broadcasts and shuffles (latency + bytes/bandwidth), and
// per-machine memory ceilings (which produce the out-of-memory N/A cells
// and the "RDD scales further than broadcasting" claim). Tasks execute on
// real goroutines bounded by the simulated core count; their measured
// durations are list-scheduled onto the simulated machines to produce a
// simulated makespan per stage.
package cluster

import (
	"container/heap"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Config describes the simulated cluster.
type Config struct {
	// Machines is the number of worker machines.
	Machines int
	// CoresPerMachine is the number of task slots per machine.
	CoresPerMachine int
	// MemoryPerMachine is each machine's memory budget in bytes.
	MemoryPerMachine int64
	// NetBandwidthBytesPerSec models aggregate network throughput used by
	// broadcast and shuffle accounting.
	NetBandwidthBytesPerSec float64
	// NetLatency is the fixed per-transfer startup cost.
	NetLatency time.Duration
	// MaxTaskRetries is how many times a failed task is re-executed
	// before its stage fails (Spark's spark.task.maxFailures - 1).
	// 0 means tasks fail their stage immediately.
	MaxTaskRetries int
}

// DefaultConfig mirrors the paper's cluster shape (10 machines × 16
// cores) with memory scaled to the repository's scaled-down datasets:
// 377 GB per machine for billion-edge graphs becomes 48 MB per machine
// for the ~1000× smaller synthetic profiles. The ratio is chosen so the
// memory wall falls where the paper's did: clue-web (401 GB > 377 GB)
// is the one dataset the broadcast model cannot hold, which is why the
// paper's broadcasting table has no clue-web row.
func DefaultConfig() Config {
	return Config{
		Machines:                10,
		CoresPerMachine:         16,
		MemoryPerMachine:        48 << 20,
		NetBandwidthBytesPerSec: 1 << 30, // 1 GB/s
		NetLatency:              500 * time.Microsecond,
		MaxTaskRetries:          2,
	}
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	if c.Machines <= 0 {
		return fmt.Errorf("cluster: machine count %d must be positive", c.Machines)
	}
	if c.CoresPerMachine <= 0 {
		return fmt.Errorf("cluster: cores per machine %d must be positive", c.CoresPerMachine)
	}
	if c.MemoryPerMachine <= 0 {
		return fmt.Errorf("cluster: memory per machine %d must be positive", c.MemoryPerMachine)
	}
	if c.NetBandwidthBytesPerSec <= 0 {
		return fmt.Errorf("cluster: bandwidth must be positive")
	}
	if c.NetLatency < 0 {
		return fmt.Errorf("cluster: negative latency")
	}
	if c.MaxTaskRetries < 0 {
		return fmt.Errorf("cluster: negative retry count %d", c.MaxTaskRetries)
	}
	return nil
}

// TotalCores returns machines × cores.
func (c Config) TotalCores() int { return c.Machines * c.CoresPerMachine }

// StageMetrics records one stage's cost.
type StageMetrics struct {
	Name string
	// Tasks is the number of tasks in the stage.
	Tasks int
	// ComputeTime is the sum of task durations (total work).
	ComputeTime time.Duration
	// SimWall is the simulated makespan: list-scheduled task durations on
	// the simulated cores plus any network time attributed to the stage.
	SimWall time.Duration
	// ShuffleBytes and BroadcastBytes are the network volumes accounted.
	ShuffleBytes   int64
	BroadcastBytes int64
	// Retries counts task re-executions after failures.
	Retries int
}

// Cluster is a simulated cluster. Methods are safe for concurrent use,
// but stages are expected to be driven by one coordinator ("driver").
type Cluster struct {
	cfg Config

	mu      sync.Mutex
	stages  []StageMetrics
	memUsed int64 // per-machine resident bytes currently reserved
	sem     chan struct{}
}

// New creates a cluster from cfg.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Cluster{cfg: cfg, sem: make(chan struct{}, cfg.TotalCores())}, nil
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Reserve claims per-machine memory for a resident dataset (a broadcast
// graph, an index partition). It fails — like an executor OOM — when the
// budget is exceeded.
func (c *Cluster) Reserve(perMachineBytes int64, what string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.memUsed+perMachineBytes > c.cfg.MemoryPerMachine {
		return fmt.Errorf("cluster: out of memory reserving %d bytes for %s (%d of %d in use)",
			perMachineBytes, what, c.memUsed, c.cfg.MemoryPerMachine)
	}
	c.memUsed += perMachineBytes
	return nil
}

// Release returns previously reserved memory.
func (c *Cluster) Release(perMachineBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.memUsed -= perMachineBytes
	if c.memUsed < 0 {
		c.memUsed = 0
	}
}

// MemoryInUse returns the current per-machine reservation. Only tests
// call it, as instrumentation: TestMemoryReservation (cluster),
// TestBroadcastOOM and TestQueriesLazyBuildAndClose (dist) check that
// reservations are taken and released.
func (c *Cluster) MemoryInUse() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.memUsed
}

// Task is one unit of stage work.
type Task func() error

// RunStage executes the tasks with parallelism bounded by the simulated
// core count, records their durations, and appends a StageMetrics whose
// SimWall is the list-scheduling makespan on the simulated cluster.
// Failed tasks are re-executed up to Config.MaxTaskRetries times, like
// Spark's task-failure handling; retried attempts add their duration to
// both the compute time and the makespan input.
func (c *Cluster) RunStage(name string, tasks []Task) error {
	var (
		mu        sync.Mutex
		durations []time.Duration
		retries   int
		firstErr  error
	)
	var wg sync.WaitGroup
	for i, t := range tasks {
		wg.Add(1)
		go func(i int, t Task) {
			defer wg.Done()
			c.sem <- struct{}{}
			defer func() { <-c.sem }()
			var taskErr error
			for attempt := 0; attempt <= c.cfg.MaxTaskRetries; attempt++ {
				start := time.Now()
				taskErr = t()
				d := time.Since(start)
				mu.Lock()
				durations = append(durations, d)
				if attempt > 0 {
					retries++
				}
				mu.Unlock()
				if taskErr == nil {
					break
				}
			}
			if taskErr != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("cluster: stage %s task %d: %w", name, i, taskErr)
				}
				mu.Unlock()
			}
		}(i, t)
	}
	wg.Wait()
	m := StageMetrics{Name: name, Tasks: len(tasks), Retries: retries}
	for _, d := range durations {
		m.ComputeTime += d
	}
	m.SimWall = makespan(clampStragglers(durations), c.cfg.TotalCores())
	c.mu.Lock()
	c.stages = append(c.stages, m)
	c.mu.Unlock()
	return firstErr
}

// stragglerFactor bounds how far one task's measured duration may exceed
// the stage median before it is clamped for makespan purposes. The bound
// is deliberately loose: genuine data skew (a reduce task holding a hot
// node's whole walker mass) rarely exceeds it, while OS descheduling
// spikes on oversubscribed hosts run to hundreds of times the median.
const stragglerFactor = 16

// clampStragglers limits extreme task durations to stragglerFactor times
// the stage median before list-scheduling. Spark curbs exactly this with
// speculative execution (spark.speculation re-launches outliers); here it
// also keeps the simulated makespan honest when the host OS deschedules
// the process mid-task and wall-clock measurement turns one task into a
// spurious multi-hundred-millisecond straggler. The cost is a bounded
// underreport of genuine extreme skew — conservative for the RDD-vs-
// broadcast comparison, since it can only shrink the slower model's
// makespan. Durations within the bound — including every task of a
// uniform stage — pass through unchanged.
func clampStragglers(durations []time.Duration) []time.Duration {
	if len(durations) < 2 {
		return durations
	}
	sorted := make([]time.Duration, len(durations))
	copy(sorted, durations)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	limit := stragglerFactor * sorted[len(sorted)/2]
	if limit <= 0 {
		// A zero median (empty tasks, coarse clocks) gives no baseline to
		// judge stragglers against; keep the measurements as they are.
		return durations
	}
	if sorted[len(sorted)-1] <= limit {
		return durations
	}
	out := make([]time.Duration, len(durations))
	for i, d := range durations {
		if d > limit {
			d = limit
		}
		out[i] = d
	}
	return out
}

// makespan list-schedules the task durations onto `cores` slots in order
// (each task goes to the earliest-finishing slot) and returns the finish
// time of the last slot.
func makespan(durations []time.Duration, cores int) time.Duration {
	if len(durations) == 0 {
		return 0
	}
	if cores < 1 {
		cores = 1
	}
	if cores > len(durations) {
		cores = len(durations)
	}
	h := make(durationHeap, cores)
	heap.Init(&h)
	for _, d := range durations {
		h[0] += d
		heap.Fix(&h, 0)
	}
	worst := time.Duration(0)
	for _, f := range h {
		if f > worst {
			worst = f
		}
	}
	return worst
}

type durationHeap []time.Duration

func (h durationHeap) Len() int            { return len(h) }
func (h durationHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h durationHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *durationHeap) Push(x interface{}) { *h = append(*h, x.(time.Duration)) }
func (h *durationHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// AccountBroadcast records the network cost of broadcasting `bytes` from
// the driver to every machine and attributes it to a named pseudo-stage.
func (c *Cluster) AccountBroadcast(name string, bytes int64) {
	cost := c.cfg.NetLatency +
		time.Duration(float64(bytes)*float64(c.cfg.Machines)/c.cfg.NetBandwidthBytesPerSec*float64(time.Second))
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stages = append(c.stages, StageMetrics{
		Name:           name,
		SimWall:        cost,
		BroadcastBytes: bytes,
	})
}

// AccountShuffle records the network cost of an all-to-all exchange of
// `bytes` total and attributes it to a named pseudo-stage.
func (c *Cluster) AccountShuffle(name string, bytes int64) {
	cost := c.cfg.NetLatency +
		time.Duration(float64(bytes)/c.cfg.NetBandwidthBytesPerSec*float64(time.Second))
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stages = append(c.stages, StageMetrics{
		Name:         name,
		SimWall:      cost,
		ShuffleBytes: bytes,
	})
}

// Stages returns a copy of the recorded stage metrics. Only tests call
// it, as instrumentation: the cluster tests' stage, shuffle, broadcast
// and retry accounting, rdd's TestFlakyMapPartitionsRetried and
// TestReduceByKeyLocalCombineReducesShuffle, and the root package's
// TestDistributedEnginesThroughPublicAPI read per-stage retries, shuffle
// bytes and timings from it.
func (c *Cluster) Stages() []StageMetrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]StageMetrics, len(c.stages))
	copy(out, c.stages)
	return out
}

// Totals aggregates all stages.
func (c *Cluster) Totals() StageMetrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := StageMetrics{Name: "total"}
	for _, s := range c.stages {
		total.Tasks += s.Tasks
		total.ComputeTime += s.ComputeTime
		total.SimWall += s.SimWall
		total.ShuffleBytes += s.ShuffleBytes
		total.BroadcastBytes += s.BroadcastBytes
	}
	return total
}
