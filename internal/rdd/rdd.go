// Package rdd is a miniature Spark: partitioned, immutable datasets with
// narrow and wide operations executed as stages on the simulated cluster
// of internal/cluster.
//
// The paper implements CloudWalker twice — once with the graph broadcast
// to every executor and once with the graph held in an RDD — and observes
// that "broadcasting is more efficient, but RDD is more scalable". This
// package provides the operations the RDD model (internal/dist) is written
// with, and no others: Parallelize, MapPartitions (narrow), ReduceByKey
// (wide, with map-side combine and shuffle-byte accounting), Count and
// Collect.
//
// Transformations are eager (no lineage): each call runs one stage and
// materializes the result. ReduceByKey takes an explicit key hash so
// that partitioning is deterministic across runs and worker counts.
package rdd

import (
	"fmt"

	"cloudwalker/internal/cluster"
)

// Context ties RDDs to a simulated cluster.
type Context struct {
	cl *cluster.Cluster
	// recordBytes is the accounting size of one record in shuffle volume
	// estimates.
	recordBytes int64
}

// NewContext wraps a cluster. recordBytes <= 0 defaults to 16.
func NewContext(cl *cluster.Cluster, recordBytes int64) *Context {
	if recordBytes <= 0 {
		recordBytes = 16
	}
	return &Context{cl: cl, recordBytes: recordBytes}
}

// RDD is an immutable partitioned dataset.
type RDD[T any] struct {
	ctx   *Context
	parts [][]T
}

// Parallelize splits data into `parts` contiguous partitions.
func Parallelize[T any](ctx *Context, data []T, parts int) (*RDD[T], error) {
	if parts <= 0 {
		return nil, fmt.Errorf("rdd: partition count %d must be positive", parts)
	}
	r := &RDD[T]{ctx: ctx, parts: make([][]T, parts)}
	chunk := (len(data) + parts - 1) / parts
	for p := 0; p < parts; p++ {
		lo := p * chunk
		hi := lo + chunk
		if lo > len(data) {
			lo = len(data)
		}
		if hi > len(data) {
			hi = len(data)
		}
		r.parts[p] = data[lo:hi:hi]
	}
	return r, nil
}

// Count returns the total number of records.
func (r *RDD[T]) Count() int {
	n := 0
	for _, p := range r.parts {
		n += len(p)
	}
	return n
}

// Collect gathers all records to the driver in partition order, accounting
// the transfer as a shuffle-sized network move.
func (r *RDD[T]) Collect() []T {
	out := make([]T, 0, r.Count())
	for _, p := range r.parts {
		out = append(out, p...)
	}
	r.ctx.cl.AccountShuffle("collect", int64(len(out))*r.ctx.recordBytes)
	return out
}

// MapPartitions applies f to every partition in a parallel stage. f
// receives the partition index and its records and returns the output
// records for that partition.
func MapPartitions[T, U any](r *RDD[T], name string, f func(part int, in []T) ([]U, error)) (*RDD[U], error) {
	out := &RDD[U]{ctx: r.ctx, parts: make([][]U, len(r.parts))}
	tasks := make([]cluster.Task, len(r.parts))
	for p := range r.parts {
		p := p
		tasks[p] = func() error {
			res, err := f(p, r.parts[p])
			if err != nil {
				return fmt.Errorf("rdd: %s partition %d: %w", name, p, err)
			}
			out.parts[p] = res
			return nil
		}
	}
	if err := r.ctx.cl.RunStage(name, tasks); err != nil {
		return nil, err
	}
	return out, nil
}

// Pair is a keyed record for ReduceByKey.
type Pair[K comparable, V any] struct {
	Key K
	Val V
}

// ReduceByKey combines values per key with a map-side local combine, a
// hash shuffle (only combined records travel), and a reduce-side merge.
// Output order within a partition is first-seen key order, making results
// deterministic.
func ReduceByKey[K comparable, V any](r *RDD[Pair[K, V]], name string, parts int,
	hash func(K) uint64, reduce func(V, V) V) (*RDD[Pair[K, V]], error) {
	if parts <= 0 {
		return nil, fmt.Errorf("rdd: partition count %d must be positive", parts)
	}
	// Map side: local combine + bucket.
	buckets := make([][][]Pair[K, V], len(r.parts))
	combined := 0
	tasks := make([]cluster.Task, len(r.parts))
	counts := make([]int, len(r.parts))
	for p := range r.parts {
		p := p
		tasks[p] = func() error {
			idx := make(map[K]int)
			var local []Pair[K, V]
			for _, kv := range r.parts[p] {
				if i, ok := idx[kv.Key]; ok {
					local[i].Val = reduce(local[i].Val, kv.Val)
				} else {
					idx[kv.Key] = len(local)
					local = append(local, kv)
				}
			}
			b := make([][]Pair[K, V], parts)
			for _, kv := range local {
				dst := int(hash(kv.Key) % uint64(parts))
				b[dst] = append(b[dst], kv)
			}
			buckets[p] = b
			counts[p] = len(local)
			return nil
		}
	}
	if err := r.ctx.cl.RunStage(name+"/combine", tasks); err != nil {
		return nil, err
	}
	for _, c := range counts {
		combined += c
	}
	r.ctx.cl.AccountShuffle(name+"/shuffle", int64(combined)*r.ctx.recordBytes)
	// Reduce side: merge buckets.
	out := &RDD[Pair[K, V]]{ctx: r.ctx, parts: make([][]Pair[K, V], parts)}
	tasks = make([]cluster.Task, parts)
	for dst := 0; dst < parts; dst++ {
		dst := dst
		tasks[dst] = func() error {
			idx := make(map[K]int)
			var merged []Pair[K, V]
			for p := range buckets {
				for _, kv := range buckets[p][dst] {
					if i, ok := idx[kv.Key]; ok {
						merged[i].Val = reduce(merged[i].Val, kv.Val)
					} else {
						idx[kv.Key] = len(merged)
						merged = append(merged, kv)
					}
				}
			}
			out.parts[dst] = merged
			return nil
		}
	}
	if err := r.ctx.cl.RunStage(name+"/reduce", tasks); err != nil {
		return nil, err
	}
	return out, nil
}
