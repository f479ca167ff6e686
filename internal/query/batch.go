package query

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"grove/internal/obs"
)

// BatchExecutor fans a slice of queries across a bounded worker pool. The
// paper's experiments (Figs. 3, 6–8) all evaluate batches of 100 queries;
// a batch is embarrassingly parallel once the relation read path is
// concurrent-safe, so the executor simply hands out query indexes to
// workers, each running its own Engine clone (shared relation, registry and
// result cache; private scratch).
//
// Results are deterministic: result slot i always holds the answer of query
// i, whichever worker computed it, and error slot i its error. A query that
// panics (a malformed plan, a kernel bug) surfaces as that query's error,
// not as a crashed batch, and a cancelled context fails the not-yet-started
// queries promptly with the context's error while queries already running
// finish their current cancellation check.
type BatchExecutor struct {
	eng     *Engine
	workers int
}

// NewBatchExecutor wraps an engine for batch execution with the given
// worker count (≤ 0 selects runtime.NumCPU()).
func NewBatchExecutor(eng *Engine, workers int) *BatchExecutor {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &BatchExecutor{eng: eng, workers: workers}
}

// Workers returns the configured worker-pool size.
func (b *BatchExecutor) Workers() int { return b.workers }

// ExecuteGraphQueriesContext runs every query under ctx and returns the
// results and one error slot per query (nil on success). Queries not yet
// started when ctx is cancelled fail with ctx's error; a panicking query
// fails alone while the rest of the batch completes. The executor is the
// layer that received the batch, so it counts the batch and each member
// once.
func (b *BatchExecutor) ExecuteGraphQueriesContext(ctx context.Context, queries []*GraphQuery) ([]*Result, []error) {
	return observedBatch(ctx, b, obs.KindGraph, queries, (*Engine).ExecuteGraphQueryContext)
}

// ExecutePathAggQueriesContext is ExecuteGraphQueriesContext for
// path-aggregation queries.
func (b *BatchExecutor) ExecutePathAggQueriesContext(ctx context.Context, queries []*PathAggQuery) ([]*AggResult, []error) {
	return observedBatch(ctx, b, obs.KindPathAgg, queries, (*Engine).ExecutePathAggQueryContext)
}

func observedBatch[Q, R any](ctx context.Context, b *BatchExecutor, kind string, queries []Q,
	exec func(*Engine, context.Context, Q) (R, error)) ([]R, []error) {
	results, errs, durs := Batch(ctx, b, queries, exec)
	b.eng.hooks.Metrics.RecordBatch(kind, durs, errs)
	return results, errs
}

// Batch runs exec over every query across b's worker pool and returns the
// results in query order, one error slot per query and each query's
// execution time (measured only when the engine carries metrics, zero
// otherwise). Work is distributed by an atomic cursor, so fast workers take
// more queries and stragglers never gate the batch; each worker keeps one
// engine clone (and thereby one scratch) for its whole share. A single
// worker runs the batch on the caller's goroutine.
//
// Batch observes the pool (the busy-workers gauge) but counts no query: its
// workers run with the metrics detached, and the layer that received the
// batch records it once with QueryMetrics.RecordBatch — the executor's own
// Execute*QueriesContext, or a coordinator merging per-shard batches.
func Batch[Q, R any](ctx context.Context, b *BatchExecutor, queries []Q,
	exec func(*Engine, context.Context, Q) (R, error)) ([]R, []error, []time.Duration) {
	n := len(queries)
	if n == 0 {
		return nil, nil, nil
	}
	results := make([]R, n)
	errs := make([]error, n)
	durs := make([]time.Duration, n)
	m := b.eng.hooks.Metrics
	workers := min(b.workers, n)
	if workers <= 1 {
		eng := b.worker()
		for i, q := range queries {
			results[i], durs[i], errs[i] = runOne(ctx, eng, m, q, exec)
		}
		return results, errs, durs
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := b.worker()
			for i := int(cursor.Add(1)) - 1; i < n; i = int(cursor.Add(1)) - 1 {
				results[i], durs[i], errs[i] = runOne(ctx, eng, m, queries[i], exec)
			}
		}()
	}
	wg.Wait()
	return results, errs, durs
}

// worker returns the engine one pool worker runs its queries on: a clone
// with its own scratch and the metrics detached, so the members are counted
// only by the batch's receiver.
func (b *BatchExecutor) worker() *Engine {
	eng := b.eng.Clone()
	eng.hooks.Metrics = nil
	return eng
}

// runOne runs one batch member. Once ctx is cancelled it fails at once with
// ctx's error; a panic becomes the query's error, so a single bad query
// cannot take down the whole batch (or leak a worker's goroutine) — the
// engine's locked sections release their read locks via defer, so the
// relation stays usable after a recovered panic. With metrics attached the
// worker counts as busy while the query runs, and its execution time is
// returned.
func runOne[Q, R any](ctx context.Context, eng *Engine, m *obs.QueryMetrics, q Q,
	exec func(*Engine, context.Context, Q) (R, error)) (res R, d time.Duration, err error) {
	if err := ctx.Err(); err != nil {
		return res, 0, err
	}
	if m != nil {
		m.BatchWorkersBusy.Add(1)
		start := time.Now()
		defer func() {
			d = time.Since(start)
			m.BatchWorkersBusy.Add(-1)
		}()
	}
	defer func() {
		if p := recover(); p != nil {
			var zero R
			res, err = zero, fmt.Errorf("query panicked: %v", p)
		}
	}()
	if res, err = exec(eng, ctx, q); err != nil {
		var zero R
		return zero, 0, err
	}
	return res, 0, nil
}
