package obs

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Hooks are the observation sinks a query-receiving layer carries: a metrics
// bundle, a trace ring and a slow-query log. Any of them may be nil; the zero
// Hooks observes nothing and costs three nil checks per query.
type Hooks struct {
	Metrics *QueryMetrics
	Traces  *TraceRing
	Slow    *SlowLog
}

// Name renders a query's display string only when a hook records it (the
// trace ring or the slow log), so the disabled path never pays the
// rendering.
//
//grove:hotpath
func (h Hooks) Name(q fmt.Stringer) string {
	if h.Traces == nil && h.Slow == nil {
		return ""
	}
	return q.String()
}

// IOSource reports the cumulative column-store I/O of the layer observing a
// query; trace and slow-log I/O deltas are taken against its snapshots.
type IOSource interface {
	IONow() IODelta
}

// Observation is the observation of one query by the layer that received it
// — an engine called directly, or a coordinator scattering the query across
// shards. Start opens it and Finish closes it: the root trace goes into the
// ring, the query counts once under its kind with its end-to-end latency,
// and a query over the slow log's threshold leaves one entry. Layers that
// execute sub-queries on the receiving layer's behalf (shard engines, batch
// workers) run without metrics, so every query is counted exactly once.
type Observation struct {
	hooks   Hooks
	src     IOSource
	kind    string
	query   string
	shard   int
	start   time.Time
	startIO IODelta

	// Root is the query's trace while tracing is on (nil otherwise); the
	// executor marks its phases on it.
	Root *ActiveTrace
}

// Start opens the observation of one query of the given kind. query is its
// display string (render it with Hooks.Name); shard labels the trace and the
// slow-log entry — the engine's shard index, or ShardCoordinator.
func Start(h Hooks, src IOSource, kind, query string, shard int) Observation {
	o := Observation{hooks: h, src: src, kind: kind, query: query, shard: shard}
	if h.Metrics != nil || h.Slow != nil {
		o.start = time.Now()
	}
	if h.Slow != nil {
		o.startIO = src.IONow()
	}
	if h.Traces != nil {
		o.Root = StartTrace(kind, query, src.IONow())
		o.Root.SetShard(shard)
	}
	return o
}

// Finish closes the observation. A successful query counts once under its
// kind with its latency; a query at or over the slow log's threshold leaves
// one entry, classified Cancelled when err is a context cancellation. cached
// marks an answer served from the result cache; shards is the per-shard
// breakdown of a scatter-gathered query (nil for an engine-level one).
func (o *Observation) Finish(cached bool, shards []ShardTiming, err error) {
	if o.Root != nil {
		o.hooks.Traces.Add(o.Root.Finish(o.src.IONow()))
	}
	if o.hooks.Metrics == nil && o.hooks.Slow == nil {
		return
	}
	d := time.Since(o.start)
	if err == nil {
		o.hooks.Metrics.Record(o.kind, d)
	}
	if o.hooks.Slow == nil || d < o.hooks.Slow.Threshold() {
		return
	}
	sq := SlowQuery{
		Kind:           o.kind,
		Query:          o.query,
		Shard:          o.shard,
		StartUnixNanos: o.start.UnixNano(),
		DurationNanos:  d.Nanoseconds(),
		Cached:         cached,
		IO:             o.src.IONow().Sub(o.startIO),
		Shards:         shards,
	}
	if err != nil {
		sq.Error = err.Error()
		sq.Cancelled = errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	}
	o.hooks.Slow.Add(sq)
}
