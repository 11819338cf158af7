package cluster

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Machines = 2
	cfg.CoresPerMachine = 2
	cfg.MemoryPerMachine = 1 << 20
	return cfg
}

func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Machines = 0 },
		func(c *Config) { c.CoresPerMachine = 0 },
		func(c *Config) { c.MemoryPerMachine = 0 },
		func(c *Config) { c.NetBandwidthBytesPerSec = 0 },
		func(c *Config) { c.NetLatency = -time.Second },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if _, err := New(Config{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestDefaultConfigMatchesPaperShape(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Machines != 10 || cfg.CoresPerMachine != 16 {
		t.Fatalf("default cluster %dx%d, want the paper's 10x16", cfg.Machines, cfg.CoresPerMachine)
	}
	if cfg.TotalCores() != 160 {
		t.Fatalf("TotalCores = %d", cfg.TotalCores())
	}
}

func TestRunStageRunsAllTasks(t *testing.T) {
	c, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var ran int64
	tasks := make([]Task, 10)
	for i := range tasks {
		tasks[i] = func() error {
			atomic.AddInt64(&ran, 1)
			return nil
		}
	}
	if err := c.RunStage("work", tasks); err != nil {
		t.Fatal(err)
	}
	if ran != 10 {
		t.Fatalf("ran %d tasks, want 10", ran)
	}
	st := c.Stages()
	if len(st) != 1 || st[0].Tasks != 10 || st[0].Name != "work" {
		t.Fatalf("stages %+v", st)
	}
	if st[0].SimWall <= 0 || st[0].ComputeTime < st[0].SimWall {
		t.Fatalf("inconsistent times: %+v", st[0])
	}
}

func TestRunStagePropagatesError(t *testing.T) {
	c, _ := New(testConfig())
	want := errors.New("task boom")
	err := c.RunStage("failing", []Task{
		func() error { return nil },
		func() error { return want },
	})
	if !errors.Is(err, want) {
		t.Fatalf("got %v", err)
	}
}

func TestRunStageBoundsParallelism(t *testing.T) {
	cfg := testConfig() // 4 cores total
	c, _ := New(cfg)
	var cur, peak int64
	tasks := make([]Task, 16)
	for i := range tasks {
		tasks[i] = func() error {
			n := atomic.AddInt64(&cur, 1)
			for {
				p := atomic.LoadInt64(&peak)
				if n <= p || atomic.CompareAndSwapInt64(&peak, p, n) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			atomic.AddInt64(&cur, -1)
			return nil
		}
	}
	if err := c.RunStage("bounded", tasks); err != nil {
		t.Fatal(err)
	}
	if peak > int64(cfg.TotalCores()) {
		t.Fatalf("observed %d concurrent tasks on %d cores", peak, cfg.TotalCores())
	}
}

func TestMakespan(t *testing.T) {
	ms := func(cores int, ds ...time.Duration) time.Duration {
		return makespan(ds, cores)
	}
	if got := ms(2, 4, 3, 2, 1); got != 5 {
		t.Fatalf("makespan = %d, want 5", got)
	}
	if got := ms(1, 4, 3); got != 7 {
		t.Fatalf("single core makespan = %d", got)
	}
	if got := ms(8, 4, 3); got != 4 {
		t.Fatalf("overprovisioned makespan = %d", got)
	}
	if got := ms(4); got != 0 {
		t.Fatalf("empty makespan = %d", got)
	}
}

func TestClampStragglers(t *testing.T) {
	// Uniform stages pass through untouched (same backing array).
	uniform := []time.Duration{3, 4, 5, 4}
	if got := clampStragglers(uniform); &got[0] != &uniform[0] {
		t.Fatal("uniform stage was copied")
	}
	// A wild outlier is clamped to stragglerFactor x median (the upper
	// median, 3 here); the rest keep their values.
	ds := []time.Duration{2, 3, 1000, 2}
	got := clampStragglers(ds)
	if got[2] != stragglerFactor*3 {
		t.Fatalf("straggler clamped to %d, want %d", got[2], stragglerFactor*3)
	}
	if got[0] != 2 || got[1] != 3 || got[3] != 2 {
		t.Fatalf("non-stragglers changed: %v", got)
	}
	if ds[2] != 1000 {
		t.Fatal("input mutated")
	}
	// Single-task stages cannot be judged against a median.
	one := []time.Duration{1000}
	if got := clampStragglers(one); got[0] != 1000 {
		t.Fatalf("single task clamped to %d", got[0])
	}
	// A zero median (coarse clocks, empty tasks) gives no baseline; the
	// measurements must pass through rather than collapse to zero.
	zeros := []time.Duration{0, 0, 0, 500}
	if got := clampStragglers(zeros); got[3] != 500 {
		t.Fatalf("zero-median stage clamped to %d", got[3])
	}
}

func TestMemoryReservation(t *testing.T) {
	c, _ := New(testConfig()) // 1 MB per machine
	if err := c.Reserve(512<<10, "half"); err != nil {
		t.Fatal(err)
	}
	if err := c.Reserve(600<<10, "too much"); err == nil {
		t.Fatal("over-reservation accepted")
	}
	if got := c.MemoryInUse(); got != 512<<10 {
		t.Fatalf("MemoryInUse = %d", got)
	}
	c.Release(512 << 10)
	if got := c.MemoryInUse(); got != 0 {
		t.Fatalf("after release MemoryInUse = %d", got)
	}
	// Releasing more than reserved clamps at zero.
	c.Release(1 << 30)
	if got := c.MemoryInUse(); got != 0 {
		t.Fatalf("negative reservation %d", got)
	}
}

func TestBroadcastAccounting(t *testing.T) {
	cfg := testConfig()
	cfg.NetBandwidthBytesPerSec = 1 << 20 // 1 MB/s
	cfg.NetLatency = time.Millisecond
	c, _ := New(cfg)
	c.AccountBroadcast("graph", 1<<20) // 1 MB to 2 machines at 1 MB/s = 2s
	st := c.Stages()
	if len(st) != 1 {
		t.Fatal("no stage recorded")
	}
	want := 2*time.Second + time.Millisecond
	if st[0].SimWall != want {
		t.Fatalf("broadcast SimWall = %v, want %v", st[0].SimWall, want)
	}
	if st[0].BroadcastBytes != 1<<20 {
		t.Fatalf("BroadcastBytes = %d", st[0].BroadcastBytes)
	}
}

func TestShuffleAccounting(t *testing.T) {
	cfg := testConfig()
	cfg.NetBandwidthBytesPerSec = 1 << 20
	cfg.NetLatency = time.Millisecond
	c, _ := New(cfg)
	c.AccountShuffle("step", 512<<10) // 0.5 MB at 1 MB/s = 0.5s
	st := c.Stages()
	want := 500*time.Millisecond + time.Millisecond
	if st[0].SimWall != want {
		t.Fatalf("shuffle SimWall = %v, want %v", st[0].SimWall, want)
	}
	if st[0].ShuffleBytes != 512<<10 {
		t.Fatalf("ShuffleBytes = %d", st[0].ShuffleBytes)
	}
}

func TestTaskRetrySucceedsAfterFlake(t *testing.T) {
	cfg := testConfig()
	cfg.MaxTaskRetries = 2
	c, _ := New(cfg)
	var attempts int64
	err := c.RunStage("flaky", []Task{
		func() error {
			if atomic.AddInt64(&attempts, 1) < 3 {
				return errors.New("transient")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("flaky task not retried to success: %v", err)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
	st := c.Stages()
	if st[0].Retries != 2 {
		t.Fatalf("Retries = %d, want 2", st[0].Retries)
	}
}

func TestTaskRetryExhaustedFailsStage(t *testing.T) {
	cfg := testConfig()
	cfg.MaxTaskRetries = 1
	c, _ := New(cfg)
	boom := errors.New("permanent")
	err := c.RunStage("doomed", []Task{func() error { return boom }})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v", err)
	}
	if st := c.Stages(); st[0].Retries != 1 {
		t.Fatalf("Retries = %d, want 1", st[0].Retries)
	}
}

func TestNegativeRetriesRejected(t *testing.T) {
	cfg := testConfig()
	cfg.MaxTaskRetries = -1
	if cfg.Validate() == nil {
		t.Fatal("negative retries accepted")
	}
}

func TestTotals(t *testing.T) {
	c, _ := New(testConfig())
	c.AccountShuffle("a", 100)
	c.AccountBroadcast("b", 200)
	_ = c.RunStage("s", []Task{func() error { return nil }})
	tot := c.Totals()
	if tot.ShuffleBytes != 100 || tot.BroadcastBytes != 200 || tot.Tasks != 1 {
		t.Fatalf("totals %+v", tot)
	}
}
