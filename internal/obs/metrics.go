package obs

import "time"

// Metric names, kept in one place so docs, tests and dashboards agree.
const (
	MetricQueriesTotal      = "grove_queries_total"
	MetricQueryDuration     = "grove_query_duration_seconds"
	MetricBatchesTotal      = "grove_batch_batches_total"
	MetricBatchQueriesTotal = "grove_batch_queries_total"
	MetricBatchWorkersBusy  = "grove_batch_workers_busy"
)

// QueryMetrics is the bundle of query metrics the layer that received a
// query records on its hot path (Observation.Finish, RecordBatch). All
// fields are plain atomics; recording is allocation-free.
type QueryMetrics struct {
	GraphQueries     *Counter
	PathAggQueries   *Counter
	ExprQueries      *Counter
	StatementQueries *Counter

	GraphLatency     *Histogram
	PathAggLatency   *Histogram
	ExprLatency      *Histogram
	StatementLatency *Histogram

	// Batch-executor metrics: batches/queries submitted and a live gauge of
	// busy workers (pool utilization).
	BatchBatches     *Counter
	BatchQueries     *Counter
	BatchWorkersBusy *Gauge
}

// NewQueryMetrics registers the engine metric set on r and returns the
// handles.
func NewQueryMetrics(r *Registry) *QueryMetrics {
	queries := func(kind string) *Counter {
		return r.Counter(MetricQueriesTotal+"{"+Labels("kind", kind)+"}",
			"Queries executed, by kind.")
	}
	latency := func(kind string) *Histogram {
		return r.Histogram(MetricQueryDuration+"{"+Labels("kind", kind)+"}",
			"Query wall time in seconds, by kind.", nil)
	}
	return &QueryMetrics{
		GraphQueries:     queries(KindGraph),
		PathAggQueries:   queries(KindPathAgg),
		ExprQueries:      queries(KindExpr),
		StatementQueries: queries(KindStatement),
		GraphLatency:     latency(KindGraph),
		PathAggLatency:   latency(KindPathAgg),
		ExprLatency:      latency(KindExpr),
		StatementLatency: latency(KindStatement),
		BatchBatches: r.Counter(MetricBatchesTotal,
			"Query batches submitted to the batch executor."),
		BatchQueries: r.Counter(MetricBatchQueriesTotal,
			"Queries submitted through the batch executor."),
		BatchWorkersBusy: r.Gauge(MetricBatchWorkersBusy,
			"Batch-executor workers currently executing a query."),
	}
}

// Record counts one finished query of the given kind and observes its
// latency. Unknown kinds are ignored.
func (m *QueryMetrics) Record(kind string, d time.Duration) {
	if m == nil {
		return
	}
	secs := d.Seconds()
	switch kind {
	case KindGraph:
		m.GraphQueries.Inc()
		m.GraphLatency.Observe(secs)
	case KindPathAgg:
		m.PathAggQueries.Inc()
		m.PathAggLatency.Observe(secs)
	case KindExpr:
		m.ExprQueries.Inc()
		m.ExprLatency.Observe(secs)
	case KindStatement:
		m.StatementQueries.Inc()
		m.StatementLatency.Observe(secs)
	}
}

// RecordBatch counts one batch of len(errs) queries of the given kind and
// records every member that succeeded with its latency durs[i]. An empty
// batch counts nothing.
func (m *QueryMetrics) RecordBatch(kind string, durs []time.Duration, errs []error) {
	if m == nil || len(errs) == 0 {
		return
	}
	m.BatchBatches.Inc()
	m.BatchQueries.Add(int64(len(errs)))
	for i, err := range errs {
		if err == nil {
			m.Record(kind, durs[i])
		}
	}
}
