package obs

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// fakeIO is an IOSource whose counters advance by one bitmap fetch per read.
type fakeIO struct{ n int64 }

func (f *fakeIO) IONow() IODelta {
	f.n++
	return IODelta{BitmapColumnsFetched: f.n}
}

type name string

func (n name) String() string { return string(n) }

func TestObservationZeroHooksObservesNothing(t *testing.T) {
	src := &fakeIO{}
	var h Hooks
	if got := h.Name(name("[A,B]")); got != "" {
		t.Errorf("Name with no recording hook = %q, want empty", got)
	}
	o := Start(h, src, KindGraph, "", 0)
	if o.Root != nil {
		t.Error("trace opened with no ring attached")
	}
	o.Finish(false, nil, errors.New("boom"))
	if src.n != 0 {
		t.Errorf("disabled observation read the I/O source %d times", src.n)
	}
}

func TestObservationRecordsOnce(t *testing.T) {
	m := NewQueryMetrics(NewRegistry())
	h := Hooks{Metrics: m, Traces: NewTraceRing(4), Slow: NewSlowLog(4, 0)}
	shards := []ShardTiming{{Shard: 0, DurationNanos: 5}, {Shard: 1, DurationNanos: 7}}

	o := Start(h, &fakeIO{}, KindPathAgg, h.Name(name("SUM [A,B]")), ShardCoordinator)
	o.Root.Begin(PhaseFanOut, IODelta{})
	o.Finish(true, shards, nil)

	if m.PathAggQueries.Value() != 1 || m.PathAggLatency.Count() != 1 {
		t.Errorf("pathagg counted %d times with %d samples, want 1 and 1",
			m.PathAggQueries.Value(), m.PathAggLatency.Count())
	}
	if m.GraphQueries.Value() != 0 {
		t.Error("observation counted under the wrong kind")
	}
	traces := h.Traces.Recent()
	if len(traces) != 1 || traces[0].Kind != KindPathAgg || traces[0].Query != "SUM [A,B]" ||
		traces[0].Shard != ShardCoordinator {
		t.Fatalf("traces = %+v", traces)
	}
	slow := h.Slow.Recent()
	if len(slow) != 1 {
		t.Fatalf("slow entries = %d, want 1", len(slow))
	}
	e := slow[0]
	if e.Kind != KindPathAgg || e.Query != "SUM [A,B]" || e.Shard != ShardCoordinator ||
		!e.Cached || e.Cancelled || e.Error != "" || len(e.Shards) != 2 {
		t.Errorf("slow entry = %+v", e)
	}
	if e.IO.BitmapColumnsFetched <= 0 {
		t.Errorf("slow entry I/O delta = %+v, want the source's advance", e.IO)
	}
}

func TestObservationFailedQuery(t *testing.T) {
	m := NewQueryMetrics(NewRegistry())
	h := Hooks{Metrics: m, Slow: NewSlowLog(4, 0)}
	for _, err := range []error{
		fmt.Errorf("shard 2: %w", context.Canceled),
		context.DeadlineExceeded,
		errors.New("query: empty graph query"),
	} {
		o := Start(h, &fakeIO{}, KindGraph, "[A,B]", 3)
		o.Finish(false, nil, err)
	}
	if m.GraphQueries.Value() != 0 || m.GraphLatency.Count() != 0 {
		t.Errorf("failed queries counted: %d queries, %d samples",
			m.GraphQueries.Value(), m.GraphLatency.Count())
	}
	slow := h.Slow.Recent() // newest first
	if len(slow) != 3 {
		t.Fatalf("slow entries = %d, want 3", len(slow))
	}
	for i, cancelled := range []bool{false, true, true} {
		if slow[i].Cancelled != cancelled || slow[i].Error == "" || slow[i].Shard != 3 {
			t.Errorf("entry %d = %+v, want cancelled=%v with an error on shard 3", i, slow[i], cancelled)
		}
	}
}

func TestObservationBelowSlowThreshold(t *testing.T) {
	h := Hooks{Slow: NewSlowLog(4, time.Hour)}
	o := Start(h, &fakeIO{}, KindExpr, "[A,B] AND [C,D]", 0)
	o.Finish(false, nil, nil)
	if h.Slow.Len() != 0 {
		t.Errorf("fast query logged: %+v", h.Slow.Recent())
	}
}

func TestRecordBatch(t *testing.T) {
	m := NewQueryMetrics(NewRegistry())
	m.RecordBatch(KindGraph, nil, nil) // an empty batch counts nothing
	durs := []time.Duration{time.Millisecond, 0, 3 * time.Millisecond}
	m.RecordBatch(KindGraph, durs, []error{nil, context.Canceled, nil})
	if m.BatchBatches.Value() != 1 || m.BatchQueries.Value() != 3 {
		t.Errorf("batches = %d, batch queries = %d, want 1 and 3",
			m.BatchBatches.Value(), m.BatchQueries.Value())
	}
	if m.GraphQueries.Value() != 2 || m.GraphLatency.Count() != 2 {
		t.Errorf("members counted %d with %d samples, want the 2 that succeeded",
			m.GraphQueries.Value(), m.GraphLatency.Count())
	}
	if got, want := m.GraphLatency.Sum(), 0.004; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("latency sum = %v s, want %v s", got, want)
	}
	var nilMetrics *QueryMetrics
	nilMetrics.RecordBatch(KindGraph, durs, []error{nil, nil, nil}) // detached: no-op
}
