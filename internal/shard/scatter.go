package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"grove/internal/agg"
	"grove/internal/bitmap"
	"grove/internal/obs"
	"grove/internal/query"
)

// scatter fans fn across every shard concurrently and gathers the per-shard
// results in shard order. The first shard failure cancels the siblings'
// sub-context, so a cancelled or failed query promptly abandons all shard
// sub-queries instead of letting the stragglers run to completion. A panic
// in fn is recovered into a "shard s: query panicked" error whatever the
// shard count (in a shard goroutine it would kill the process otherwise).
//
// With one shard, fn runs inline on the caller's goroutine — no goroutine,
// channel, or context allocation — so the n=1 store keeps the
// single-relation execution profile.
func scatter[T any](ctx context.Context, c *Coordinator, fn func(ctx context.Context, s int, u *Unit) (T, error)) (out []T, err error) {
	n := len(c.units)
	if n == 1 {
		u := c.units[0]
		u.pending.Add(1)
		defer u.pending.Add(-1)
		defer func() {
			if p := recover(); p != nil {
				out, err = nil, panicError(0, p)
			}
		}()
		v, ferr := fn(ctx, 0, u)
		if ferr != nil {
			return nil, ferr
		}
		return []T{v}, nil
	}
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]T, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for s, u := range c.units {
		wg.Add(1)
		u.pending.Add(1)
		go func(s int, u *Unit) {
			defer wg.Done()
			defer u.pending.Add(-1)
			defer func() {
				if p := recover(); p != nil {
					errs[s] = panicError(s, p)
					cancel()
				}
			}()
			v, err := fn(sctx, s, u)
			if err != nil {
				errs[s] = err
				cancel() // abandon the sibling sub-queries promptly
				return
			}
			results[s] = v
		}(s, u)
	}
	wg.Wait()
	if err := scatterError(errs); err != nil {
		return nil, err
	}
	return results, nil
}

func panicError(s int, p any) error {
	return fmt.Errorf("shard %d: query panicked: %v", s, p)
}

// scatterError picks the error to surface from a scatter round. When one
// shard fails for a real reason, its siblings abort with context.Canceled
// from the induced cancellation — surfacing one of those would mask the
// cause — so cancellation errors are only returned when no shard reports
// anything else (i.e. the caller's own context was cancelled).
func scatterError(errs []error) error {
	var cancelled error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if cancelled == nil {
				cancelled = err
			}
			continue
		}
		return err
	}
	return cancelled
}

// preferErr merges two per-query error slots, preferring a real error over a
// cancellation one (same masking concern as scatterError).
func preferErr(cur, next error) error {
	if next == nil {
		return cur
	}
	if cur == nil {
		return next
	}
	if errors.Is(cur, context.Canceled) || errors.Is(cur, context.DeadlineExceeded) {
		if !errors.Is(next, context.Canceled) && !errors.Is(next, context.DeadlineExceeded) {
			return next
		}
	}
	return cur
}

// --- observed scatter --------------------------------------------------------

// subOut carries one shard's sub-query value plus the observability
// byproducts runScattered collects: the captured engine trace and the
// queue-wait/execution timings.
type subOut[T any] struct {
	v      T
	child  obs.Trace
	traced bool
	wait   time.Duration
	dur    time.Duration
}

// runScattered executes one logical query across every shard and merges the
// partials, whatever the shard count.
//
// With no observability hooks attached this is exactly scatter + merge. With
// tracing on, each shard sub-query runs on an engine clone holding a private
// one-slot capture ring, and the coordinator records one hierarchical root
// trace: a fan-out span covering the scatter, one queue-wait span per shard
// (dispatch → sub-query start), the per-shard engine traces as children, and
// a merge span; the root is Cached when every child was served from the
// result cache. With the slow log on, the clone detaches the engine-level
// log — the coordinator records one merged entry per logical query with
// per-shard timings instead of N fragments. Queue-wait and merge histograms
// are observed when attached. o is the query's observation, opened by the
// entry point that received it and closed here.
func runScattered[T, R any](ctx context.Context, c *Coordinator, o obs.Observation,
	run func(ctx context.Context, eng *query.Engine, u *Unit) (T, error),
	merge func(subs []T) R) (R, error) {

	var zero R
	if o.Root != nil {
		o.Root.Begin(obs.PhaseFanOut, c.IONow())
	}
	capture := o.Root != nil
	clone := capture || c.hooks.Slow != nil
	timed := clone || c.queueWait != nil
	var dispatch time.Time
	if timed {
		dispatch = time.Now()
	}
	subs, err := scatter(ctx, c, func(ctx context.Context, s int, u *Unit) (subOut[T], error) {
		var out subOut[T]
		var begun time.Time
		if timed {
			begun = time.Now()
			out.wait = begun.Sub(dispatch)
			if c.queueWait != nil {
				c.queueWait[s].Observe(out.wait.Seconds())
			}
		}
		eng := u.Eng
		var cring *obs.TraceRing
		if clone {
			eng = eng.Clone()
			eng.SetSlowLog(nil)
			if capture {
				cring = obs.NewTraceRing(1)
				eng.SetTraces(cring)
			} else {
				eng.SetTraces(nil)
			}
		}
		v, err := run(ctx, eng, u)
		if timed {
			out.dur = time.Since(begun)
		}
		if cring != nil {
			if rec := cring.Recent(); len(rec) > 0 {
				out.child = rec[0]
				out.traced = true
			}
		}
		if err != nil {
			return out, err
		}
		out.v = v
		return out, nil
	})
	if err != nil {
		// The per-shard results (and their captured traces) are discarded by
		// scatter on error; the root still records the failed fan-out.
		o.Finish(false, nil, err)
		return zero, err
	}
	if o.Root != nil {
		o.Root.Begin(obs.PhaseMerge, c.IONow()) // closes the fan-out span
		for s, sb := range subs {
			o.Root.AddSpan(obs.Span{Phase: obs.PhaseQueueWait, Shard: s,
				DurationNanos: sb.wait.Nanoseconds()})
		}
		cached := true
		for _, sb := range subs {
			if sb.traced {
				o.Root.AddChild(sb.child)
			}
			cached = cached && sb.traced && sb.child.Cached
		}
		if cached {
			o.Root.SetCached()
		}
	}
	vals := make([]T, len(subs))
	for i, sb := range subs {
		vals[i] = sb.v
	}
	var mstart time.Time
	if c.mergeDur != nil {
		mstart = time.Now()
	}
	out := merge(vals)
	if c.mergeDur != nil {
		c.mergeDur.Observe(time.Since(mstart).Seconds())
	}
	var timings []obs.ShardTiming
	if c.hooks.Slow != nil {
		timings = make([]obs.ShardTiming, len(subs))
		for s, sb := range subs {
			timings[s] = obs.ShardTiming{Shard: s,
				QueueNanos: sb.wait.Nanoseconds(), DurationNanos: sb.dur.Nanoseconds()}
		}
	}
	o.Finish(false, timings, nil)
	return out, nil
}

// --- graph queries -----------------------------------------------------------

// mergeResults combines per-shard graph-query results: the global answer is
// the offset-translated union of the (disjoint) per-shard answers. Plan is
// shard 0's, as the representative — shards share the schema and views, so
// the plans agree. A single partial passes through unchanged (its local ids
// are global ids), keeping its cache flag and measure fetch. subs is not
// retained.
func (c *Coordinator) mergeResults(q *query.GraphQuery, subs []*query.Result) *query.Result {
	if len(subs) == 1 {
		return subs[0]
	}
	answers := make([]*bitmap.Bitmap, len(subs))
	for i, r := range subs {
		answers[i] = r.Answer
	}
	return &query.Result{
		Query:  q,
		Plan:   subs[0].Plan,
		Answer: c.mergeBitmaps(answers),
		Subs:   append([]*query.Result(nil), subs...),
	}
}

// MatchContext executes a structural graph query across all shards.
func (c *Coordinator) MatchContext(ctx context.Context, q *query.GraphQuery) (*query.Result, error) {
	return runScattered(ctx, c, obs.Start(c.hooks, c, obs.KindGraph, c.hooks.Name(q), obs.ShardCoordinator),
		func(ctx context.Context, eng *query.Engine, u *Unit) (*query.Result, error) {
			return eng.ExecuteGraphQueryContext(ctx, q)
		},
		func(subs []*query.Result) *query.Result { return c.mergeResults(q, subs) })
}

// EvalExprContext evaluates a boolean expression over graph queries across
// all shards. AND/OR/ANDNOT distribute over a disjoint record partition, so
// each shard evaluates the whole expression locally and the global answer is
// the translated union.
func (c *Coordinator) EvalExprContext(ctx context.Context, expr query.Expr) (*bitmap.Bitmap, error) {
	return c.evalScattered(ctx, obs.Start(c.hooks, c, obs.KindExpr, c.hooks.Name(expr), obs.ShardCoordinator), expr)
}

// evalScattered is the expression evaluation body, parameterized on the
// observation so statements can reuse it under the "statement" kind with the
// statement's text.
func (c *Coordinator) evalScattered(ctx context.Context, o obs.Observation, expr query.Expr) (*bitmap.Bitmap, error) {
	return runScattered(ctx, c, o,
		func(ctx context.Context, eng *query.Engine, u *Unit) (*bitmap.Bitmap, error) {
			return eng.EvalExprContext(ctx, expr)
		},
		c.mergeBitmaps)
}

// --- path aggregation --------------------------------------------------------

// mergeAgg combines per-shard path-aggregation results. Each record's
// per-path folds were computed entirely inside its shard — merging is pure
// reordering by ascending global id, never re-association of float folds —
// so an n-shard aggregate is bit-identical to the single-shard one,
// including NaN and signed-zero values. A single partial passes through
// unchanged.
func (c *Coordinator) mergeAgg(q *query.PathAggQuery, subs []*query.AggResult) *query.AggResult {
	if len(subs) == 1 {
		return subs[0]
	}
	n := uint32(len(c.units))
	type ref struct {
		g uint32 // global record id
		s int    // shard
		i int    // index within subs[s].RecordIDs
	}
	total := 0
	for _, r := range subs {
		total += len(r.RecordIDs)
	}
	refs := make([]ref, 0, total)
	for s, r := range subs {
		for i, local := range r.RecordIDs {
			refs = append(refs, ref{g: local*n + uint32(s), s: s, i: i})
		}
	}
	sort.Slice(refs, func(a, b int) bool { return refs[a].g < refs[b].g })

	out := &query.AggResult{
		Query:           q,
		Answer:          bitmap.New(),
		RecordIDs:       make([]uint32, len(refs)),
		Paths:           subs[0].Paths,
		SegmentsPerPath: subs[0].SegmentsPerPath,
		Values:          make([][]float64, len(subs[0].Values)),
	}
	for p := range out.Values {
		out.Values[p] = make([]float64, len(refs))
	}
	for j, r := range refs {
		out.RecordIDs[j] = r.g
		out.Answer.Add(r.g)
		for p := range out.Values {
			out.Values[p][j] = subs[r.s].Values[p][r.i]
		}
	}
	return out
}

// AggregateContext executes a path-aggregation query across all shards.
func (c *Coordinator) AggregateContext(ctx context.Context, q *query.PathAggQuery) (*query.AggResult, error) {
	return c.aggregateScattered(ctx, obs.Start(c.hooks, c, obs.KindPathAgg, c.hooks.Name(q), obs.ShardCoordinator), q)
}

// aggregateScattered is the path-aggregation body, parameterized on the
// observation (see evalScattered).
func (c *Coordinator) aggregateScattered(ctx context.Context, o obs.Observation, q *query.PathAggQuery) (*query.AggResult, error) {
	return runScattered(ctx, c, o,
		func(ctx context.Context, eng *query.Engine, u *Unit) (*query.AggResult, error) {
			return eng.ExecutePathAggQueryContext(ctx, q)
		},
		func(subs []*query.AggResult) *query.AggResult { return c.mergeAgg(q, subs) })
}

// AggregateScalarContext executes a path aggregation folded all the way down
// to one scalar across all shards. The scalar plan is scattered when no fold
// needs re-associating: with one shard (the single partial passes through),
// or for MIN/MAX — each shard runs its (possibly zone-skipping) scan and the
// shard scalars merge with the query's own Fold, which is bit-identical to
// the global record-order fold because MIN/MAX are order-independent under
// the kernel total order. Any other function on several shards routes
// through the row-merging AggregateContext and folds the merged rows in
// ascending global record order, because float addition does not
// reassociate.
func (c *Coordinator) AggregateScalarContext(ctx context.Context, q *query.PathAggQuery) (*query.ScalarAggResult, error) {
	if len(c.units) == 1 || (q != nil && (q.Agg.Name == agg.Min.Name || q.Agg.Name == agg.Max.Name)) {
		return runScattered(ctx, c, obs.Start(c.hooks, c, obs.KindPathAgg, c.hooks.Name(q), obs.ShardCoordinator),
			func(ctx context.Context, eng *query.Engine, u *Unit) (*query.ScalarAggResult, error) {
				return eng.ExecutePathAggScalarContext(ctx, q)
			},
			func(subs []*query.ScalarAggResult) *query.ScalarAggResult { return mergeScalar(q, subs) })
	}
	res, err := c.AggregateContext(ctx, q)
	if err != nil {
		return nil, err
	}
	out := &query.ScalarAggResult{Query: q, Records: len(res.RecordIDs)}
	acc := q.Agg.Identity
	folded := 0
	for _, v := range res.FoldAcrossPaths() {
		if !math.IsNaN(v) {
			acc = q.Agg.Fold(acc, v)
			folded++
		}
	}
	if folded == 0 {
		acc = math.NaN()
	}
	out.Value = acc
	out.Folded = folded
	return out, nil
}

// mergeScalar combines per-shard scalar aggregates of a MIN/MAX query in
// shard order. Each shard's Value is the total-order extremum of its local
// contributions, so folding the shard values yields the extremum of the whole
// multiset — independent of shard count and order, bit for bit (including
// signed zero). Shards with nothing to contribute report NaN and are skipped,
// exactly like NULL records in the single-shard fold. A single partial — the
// only case that reaches here for other functions — passes through
// unchanged.
func mergeScalar(q *query.PathAggQuery, subs []*query.ScalarAggResult) *query.ScalarAggResult {
	if len(subs) == 1 {
		return subs[0]
	}
	out := &query.ScalarAggResult{Query: q, ZoneSkipped: true}
	acc := q.Agg.Identity
	any := false
	for _, s := range subs {
		out.Records += s.Records
		out.Folded += s.Folded
		out.BlocksScanned += s.BlocksScanned
		out.BlocksSkipped += s.BlocksSkipped
		out.ZoneSkipped = out.ZoneSkipped && s.ZoneSkipped
		if !math.IsNaN(s.Value) {
			acc = q.Agg.Fold(acc, s.Value)
			any = true
		}
	}
	if !any {
		acc = math.NaN()
	}
	out.Value = acc
	return out
}

// --- statements --------------------------------------------------------------

// ExecuteStatementContext parses and executes one text-language statement
// across all shards. The coordinator parses once and scatters the parsed
// form, so the root trace carries the parse span; it is labelled with the
// statement kind and text, and the per-shard children trace under their own
// execution kind.
func (c *Coordinator) ExecuteStatementContext(ctx context.Context, text string) (*query.StatementResult, error) {
	o := obs.Start(c.hooks, c, obs.KindStatement, text, obs.ShardCoordinator)
	if o.Root != nil {
		o.Root.Begin(obs.PhaseParse, c.IONow())
	}
	stmt, err := query.Parse(text)
	if err != nil {
		o.Finish(false, nil, err)
		return nil, err
	}
	if stmt.Agg != nil {
		res, err := c.aggregateScattered(ctx, o, stmt.Agg)
		if err != nil {
			return nil, err
		}
		return &query.StatementResult{Agg: res}, nil
	}
	ids, err := c.evalScattered(ctx, o, stmt.Expr)
	if err != nil {
		return nil, err
	}
	return &query.StatementResult{IDs: ids}, nil
}

// --- batches -----------------------------------------------------------------

// batchWorkers splits a worker budget across shards: each shard's batch
// executor gets workers/n (at least 1), so total concurrency stays near the
// requested budget instead of multiplying by the shard count.
func (c *Coordinator) batchWorkers(workers int) int {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	workers /= len(c.units)
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ExecuteGraphBatchContext runs a batch of structural queries across all
// shards: every shard executes the whole batch through its own worker pool,
// and the per-query partials merge by query index. Error slots follow batch
// semantics — one query's failure does not abort the rest — and a merged
// query errors if it failed on any shard.
func (c *Coordinator) ExecuteGraphBatchContext(ctx context.Context, queries []*query.GraphQuery, workers int) ([]*query.Result, []error) {
	return runBatch(ctx, c, obs.KindGraph, queries, workers, (*query.Engine).ExecuteGraphQueryContext, c.mergeResults)
}

// ExecutePathAggBatchContext is ExecuteGraphBatchContext for
// path-aggregation batches.
func (c *Coordinator) ExecutePathAggBatchContext(ctx context.Context, queries []*query.PathAggQuery, workers int) ([]*query.AggResult, []error) {
	return runBatch(ctx, c, obs.KindPathAgg, queries, workers, (*query.Engine).ExecutePathAggQueryContext, c.mergeAgg)
}

// runBatch executes a batch on every shard's worker pool (query.Batch) and
// merges the per-query partials by query index. The coordinator received the
// batch, so it counts it once: one batch of len(queries) members, each
// member's latency its slowest per-shard execution time. The shard pools
// share the busy-workers gauge; their engines stay unmetered.
func runBatch[Q, R any](ctx context.Context, c *Coordinator, kind string, queries []Q, workers int,
	exec func(*query.Engine, context.Context, Q) (R, error),
	merge func(q Q, subs []R) R) ([]R, []error) {

	per := c.batchWorkers(workers)
	type shardOut struct {
		res  []R
		errs []error
		durs []time.Duration
	}
	var dispatch time.Time
	if c.queueWait != nil {
		dispatch = time.Now()
	}
	subs, err := scatter(ctx, c, func(ctx context.Context, s int, u *Unit) (shardOut, error) {
		if c.queueWait != nil {
			c.queueWait[s].Observe(time.Since(dispatch).Seconds())
		}
		eng := u.Eng
		if m := c.hooks.Metrics; m != nil {
			eng = eng.Clone() // the pool's workers share the busy-workers gauge
			eng.SetMetrics(m)
		}
		res, errs, durs := query.Batch(ctx, query.NewBatchExecutor(eng, per), queries, exec)
		return shardOut{res: res, errs: errs, durs: durs}, nil
	})
	out := make([]R, len(queries))
	outErrs := make([]error, len(queries))
	durs := make([]time.Duration, len(queries))
	if err != nil { // only a recovered panic can surface here
		for i := range outErrs {
			outErrs[i] = err
		}
		c.hooks.Metrics.RecordBatch(kind, durs, outErrs)
		return out, outErrs
	}
	subsI := make([]R, len(subs))
	var mstart time.Time
	if c.mergeDur != nil {
		mstart = time.Now()
	}
	for i, q := range queries {
		var qerr error
		for s, sb := range subs {
			qerr = preferErr(qerr, sb.errs[i])
			subsI[s] = sb.res[i]
			durs[i] = max(durs[i], sb.durs[i])
		}
		if qerr != nil {
			outErrs[i] = qerr
			continue
		}
		out[i] = merge(q, subsI)
	}
	if c.mergeDur != nil {
		c.mergeDur.Observe(time.Since(mstart).Seconds())
	}
	c.hooks.Metrics.RecordBatch(kind, durs, outErrs)
	return out, outErrs
}
