package rdd

import (
	"errors"
	"sort"
	"sync/atomic"
	"testing"

	"cloudwalker/internal/cluster"
)

func testContext(t *testing.T) *Context {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.Machines = 2
	cfg.CoresPerMachine = 2
	cfg.MemoryPerMachine = 1 << 20
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return NewContext(cl, 16)
}

func ints(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestParallelizeAndCollect(t *testing.T) {
	ctx := testContext(t)
	r, err := Parallelize(ctx, ints(10), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.parts) != 3 {
		t.Fatalf("partitions = %d", len(r.parts))
	}
	if r.Count() != 10 {
		t.Fatalf("count = %d", r.Count())
	}
	got := r.Collect()
	for i, v := range got {
		if v != i {
			t.Fatalf("collect order broken: %v", got)
		}
	}
	if _, err := Parallelize(ctx, ints(3), 0); err == nil {
		t.Fatal("zero partitions accepted")
	}
}

func TestParallelizeMorePartitionsThanRecords(t *testing.T) {
	ctx := testContext(t)
	r, err := Parallelize(ctx, ints(2), 5)
	if err != nil {
		t.Fatal(err)
	}
	if r.Count() != 2 {
		t.Fatalf("count = %d", r.Count())
	}
}

func TestMapPartitions(t *testing.T) {
	// f sees each partition's index and records; output partition p is
	// f's result for input partition p, so Collect keeps partition order.
	ctx := testContext(t)
	r, _ := Parallelize(ctx, ints(8), 3)
	tagged, err := MapPartitions(r, "tag", func(p int, in []int) ([]int, error) {
		out := make([]int, 0, 2*len(in))
		for _, v := range in {
			out = append(out, 100*p+v, 100*p+v)
		}
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tagged.parts) != 3 || tagged.Count() != 16 {
		t.Fatalf("partitions %d, count %d", len(tagged.parts), tagged.Count())
	}
	want := []int{0, 0, 1, 1, 2, 2, 103, 103, 104, 104, 105, 105, 206, 206, 207, 207}
	got := tagged.Collect()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestMapPartitionsErrorPropagates(t *testing.T) {
	ctx := testContext(t)
	r, _ := Parallelize(ctx, ints(4), 2)
	boom := errors.New("boom")
	_, err := MapPartitions(r, "explode", func(p int, in []int) ([]int, error) {
		if p == 1 {
			return nil, boom
		}
		return in, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v", err)
	}
}

func TestReduceByKeyPartitionsByHash(t *testing.T) {
	// Every key lands in partition hash(key) % parts, once, and the
	// shuffle accounts exactly the map-side combined records.
	ctx := testContext(t)
	var pairs []Pair[int, int]
	for i := 0; i < 20; i++ {
		pairs = append(pairs, Pair[int, int]{Key: i, Val: i})
	}
	r, _ := Parallelize(ctx, pairs, 4)
	red, err := ReduceByKey(r, "rebalance", 3,
		func(k int) uint64 { return uint64(k) },
		func(a, b int) int { return a + b })
	if err != nil {
		t.Fatal(err)
	}
	if got := ctx.cl.Totals().ShuffleBytes; got != 20*16 {
		t.Fatalf("shuffle bytes %d, want %d", got, 20*16)
	}
	if len(red.parts) != 3 {
		t.Fatalf("partitions = %d", len(red.parts))
	}
	for p, part := range red.parts {
		for _, kv := range part {
			if kv.Key%3 != p {
				t.Fatalf("key %d in wrong partition %d", kv.Key, p)
			}
		}
	}
	var keys []int
	for _, kv := range red.Collect() {
		if kv.Val != kv.Key {
			t.Fatalf("key %d reduced to %d", kv.Key, kv.Val)
		}
		keys = append(keys, kv.Key)
	}
	sort.Ints(keys)
	for i, k := range keys {
		if k != i {
			t.Fatalf("lost keys: %v", keys)
		}
	}
}

func TestReduceByKeyDeterministic(t *testing.T) {
	run := func() []Pair[int, int] {
		ctx := testContext(t)
		var pairs []Pair[int, int]
		for i := 0; i < 50; i++ {
			pairs = append(pairs, Pair[int, int]{Key: (i * 7) % 13, Val: i})
		}
		r, _ := Parallelize(ctx, pairs, 7)
		red, err := ReduceByKey(r, "p", 4,
			func(k int) uint64 { return uint64(k * 7) },
			func(a, b int) int { return a + b })
		if err != nil {
			t.Fatal(err)
		}
		return red.Collect()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths %d and %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("reduce order not deterministic")
		}
	}
}

func TestReduceByKey(t *testing.T) {
	ctx := testContext(t)
	var pairs []Pair[int, int]
	for i := 0; i < 30; i++ {
		pairs = append(pairs, Pair[int, int]{Key: i % 5, Val: 1})
	}
	r, _ := Parallelize(ctx, pairs, 4)
	red, err := ReduceByKey(r, "count", 3,
		func(k int) uint64 { return uint64(k) },
		func(a, b int) int { return a + b })
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]int{}
	for _, kv := range red.Collect() {
		got[kv.Key] += kv.Val
	}
	if len(got) != 5 {
		t.Fatalf("got %v", got)
	}
	for k, v := range got {
		if v != 6 {
			t.Fatalf("key %d count %d, want 6", k, v)
		}
	}
}

func TestReduceByKeyLocalCombineReducesShuffle(t *testing.T) {
	// 1000 records, 4 keys: local combine must shuffle at most
	// 4 keys × partitions records, far below 1000.
	ctx := testContext(t)
	var pairs []Pair[int, int]
	for i := 0; i < 1000; i++ {
		pairs = append(pairs, Pair[int, int]{Key: i % 4, Val: 1})
	}
	r, _ := Parallelize(ctx, pairs, 5)
	if _, err := ReduceByKey(r, "sum", 2,
		func(k int) uint64 { return uint64(k) },
		func(a, b int) int { return a + b }); err != nil {
		t.Fatal(err)
	}
	var shuffled int64
	for _, s := range ctx.cl.Stages() {
		shuffled += s.ShuffleBytes
	}
	if shuffled > int64(4*5*16) {
		t.Fatalf("shuffled %d bytes; local combine not effective", shuffled)
	}
}

func TestFlakyMapPartitionsRetried(t *testing.T) {
	// With cluster retries enabled, a transiently failing partition task
	// is re-executed and the job succeeds — Spark's task-failure model.
	cfg := cluster.DefaultConfig()
	cfg.Machines, cfg.CoresPerMachine = 2, 2
	cfg.MaxTaskRetries = 2
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(cl, 16)
	r, _ := Parallelize(ctx, ints(10), 2)
	var failures int32
	got, err := MapPartitions(r, "flaky", func(p int, in []int) ([]int, error) {
		if p == 1 && atomic.AddInt32(&failures, 1) <= 2 {
			return nil, errors.New("transient executor loss")
		}
		return in, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Count() != 10 {
		t.Fatalf("lost records after retry: %d", got.Count())
	}
	retried := 0
	for _, s := range cl.Stages() {
		retried += s.Retries
	}
	if retried != 2 {
		t.Fatalf("retries recorded %d, want 2", retried)
	}
}
