package grove

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestShardedTraceTree asserts the shape of a scatter-gathered query's
// hierarchical trace, the same for one shard as for several: one root per
// logical query, labelled with the coordinator pseudo-shard, with
// coordinator phase spans in protocol order (fan-out, one queue-wait per
// shard, merge) and one engine child per shard.
func TestShardedTraceTree(t *testing.T) {
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) { testTraceTree(t, n) })
	}
}

func testTraceTree(t *testing.T, n int) {
	st := NewSharded(n)
	loadSCMOrders(t, st)
	st.EnableTracing(8)

	if _, err := st.MatchPath("A", "D", "E"); err != nil {
		t.Fatal(err)
	}
	traces := st.RecentTraces()
	if len(traces) != 1 {
		t.Fatalf("one scattered query recorded %d traces, want 1 root (children must not land in the ring)", len(traces))
	}
	root := traces[0]
	if root.Kind != "graph" || root.Shard != -1 {
		t.Fatalf("root = kind %q shard %d, want graph/-1", root.Kind, root.Shard)
	}
	if root.Query == "" {
		t.Error("root trace lost the query text")
	}

	// Span protocol: fan-out, queue-wait ×n (labelled 0..n-1), merge.
	if len(root.Spans) != n+2 {
		t.Fatalf("root spans = %+v, want fan-out + %d queue-waits + merge", root.Spans, n)
	}
	if root.Spans[0].Phase != "fan-out" || root.Spans[0].Shard != -1 {
		t.Errorf("span 0 = %+v, want coordinator fan-out", root.Spans[0])
	}
	for i := 0; i < n; i++ {
		s := root.Spans[1+i]
		if s.Phase != "queue-wait" || s.Shard != i {
			t.Errorf("span %d = %+v, want queue-wait on shard %d", 1+i, s, i)
		}
	}
	last := root.Spans[len(root.Spans)-1]
	if last.Phase != "merge" || last.Shard != -1 {
		t.Errorf("last span = %+v, want coordinator merge", last)
	}

	if len(root.Children) != n {
		t.Fatalf("children = %d, want one per shard", len(root.Children))
	}
	var childIO int64
	for i, c := range root.Children {
		if c.Shard != i || c.Kind != "graph" {
			t.Errorf("child %d = kind %q shard %d", i, c.Kind, c.Shard)
		}
		if len(c.Spans) == 0 || c.Spans[0].Phase != "plan" {
			t.Errorf("child %d spans = %+v, want engine lifecycle starting at plan", i, c.Spans)
		}
		for _, s := range c.Spans {
			if s.Shard != i {
				t.Errorf("child %d span %q labelled shard %d", i, s.Phase, s.Shard)
			}
		}
		childIO += c.IO.BitmapColumnsFetched
	}
	if root.IO.BitmapColumnsFetched != childIO {
		t.Errorf("root bitmap fetches = %d, children sum to %d", root.IO.BitmapColumnsFetched, childIO)
	}

	// A statement is parsed once by the coordinator: the root carries the
	// statement kind and text, and its first span is the parse.
	if _, err := st.Query("[A,D] AND NOT [C,H]"); err != nil {
		t.Fatal(err)
	}
	stmt := st.RecentTraces()[0]
	if stmt.Kind != "statement" || stmt.Query != "[A,D] AND NOT [C,H]" {
		t.Fatalf("statement root = kind %q query %q", stmt.Kind, stmt.Query)
	}
	if len(stmt.Spans) == 0 || stmt.Spans[0].Phase != "parse" || stmt.Spans[0].Shard != -1 {
		t.Errorf("statement root spans = %+v, want a coordinator parse span first", stmt.Spans)
	}
	if len(stmt.Children) != n {
		t.Errorf("statement children = %d", len(stmt.Children))
	}

	// The root is Cached exactly when every shard child was a cache hit.
	st.EnableResultCache(true, 64)
	for i, want := range []bool{false, true} {
		if _, err := st.MatchPath("A", "D", "E", "G"); err != nil {
			t.Fatal(err)
		}
		if got := st.RecentTraces()[0].Cached; got != want {
			t.Errorf("run %d: root Cached = %v, want %v", i, got, want)
		}
	}

	st.DisableTracing()
	if st.RecentTraces() != nil {
		t.Error("traces survive disabling")
	}
}

// TestShardedExplainAnalyzeSumEqualsParts is the sharded EXPLAIN ANALYZE
// acceptance criterion: the analysis carries one child per shard, the root's
// observed I/O is exactly the sum over the children, each child's fetch count
// matches the plan, and the answer is bit-identical to the single-shard one.
func TestShardedExplainAnalyzeSumEqualsParts(t *testing.T) {
	one, four := Open(), NewSharded(4)
	loadSCMOrders(t, one)
	loadSCMOrders(t, four)

	g := PathOf("A", "D", "E").ToGraph()
	a1, err := one.ExplainAnalyze(g)
	if err != nil {
		t.Fatal(err)
	}
	a4, err := four.ExplainAnalyze(g)
	if err != nil {
		t.Fatal(err)
	}

	if a4.Plan.BitmapsFetched != a1.Plan.BitmapsFetched {
		t.Errorf("plans disagree: %d vs %d bitmaps", a4.Plan.BitmapsFetched, a1.Plan.BitmapsFetched)
	}
	if a4.Records != a1.Records {
		t.Errorf("records = %d, single-shard %d", a4.Records, a1.Records)
	}
	if a4.Answer == nil || !a4.Answer.Equals(a1.Answer) {
		t.Fatalf("sharded answer %v differs from single-shard %v", a4.Answer, a1.Answer)
	}
	// The analysis answer must be the same record set a plain Match returns.
	res, err := four.Match(g)
	if err != nil {
		t.Fatal(err)
	}
	if !a4.Answer.Equals(res.Answer) {
		t.Error("ExplainAnalyze answer differs from Match on the same store")
	}

	root := a4.Trace
	if root.Shard != -1 || len(root.Children) != 4 {
		t.Fatalf("root = shard %d with %d children", root.Shard, len(root.Children))
	}
	var sum IODelta
	for i, c := range root.Children {
		if c.Shard != i {
			t.Errorf("child %d labelled shard %d", i, c.Shard)
		}
		// Every shard executes the full plan against its own columns.
		if c.IO.BitmapColumnsFetched != int64(a4.Plan.BitmapsFetched) {
			t.Errorf("child %d fetched %d bitmaps, plan predicts %d", i, c.IO.BitmapColumnsFetched, a4.Plan.BitmapsFetched)
		}
		sum = sum.Add(c.IO)
	}
	if root.IO != sum {
		t.Errorf("root IO %+v != sum of children %+v", root.IO, sum)
	}
	if !strings.Contains(a4.String(), "shard 0") {
		t.Errorf("rendering missing per-shard breakdown:\n%s", a4.String())
	}
}

// TestSlowQueryLogThroughStore covers the slow-query ring end to end, the
// same for one shard as for several: a threshold-0 log records one
// coordinator entry per query with its per-shard breakdown, the threshold
// can be retuned live, and /debug/slow serves the entries as JSONL.
func TestSlowQueryLogThroughStore(t *testing.T) {
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) { testSlowQueryLog(t, n) })
	}
}

func testSlowQueryLog(t *testing.T, n int) {
	st := NewSharded(n)
	loadSCMOrders(t, st)
	st.EnableSlowQueryLog(8, 0)

	if _, err := st.MatchPath("A", "D", "E"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AggregatePath(Sum, "A", "D", "E"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Query("[A,D,E] AND NOT [A,B]"); err != nil {
		t.Fatal(err)
	}

	slow := st.SlowQueries()
	if len(slow) != 3 {
		t.Fatalf("slow entries = %d, want 3 (one merged entry per logical query, not one per shard)", len(slow))
	}
	// Newest first.
	for i, want := range []string{"statement", "pathagg", "graph"} {
		e := slow[i]
		if e.Kind != want {
			t.Errorf("entry %d kind = %q, want %q", i, e.Kind, want)
		}
		if e.Shard != -1 {
			t.Errorf("entry %d shard = %d, want coordinator", i, e.Shard)
		}
		if e.Query == "" {
			t.Errorf("entry %d lost its query text", i)
		}
		if len(e.Shards) != n {
			t.Errorf("entry %d carries %d shard timings, want %d", i, len(e.Shards), n)
		}
		for s, timing := range e.Shards {
			if timing.Shard != s {
				t.Errorf("entry %d timing %d labelled shard %d", i, s, timing.Shard)
			}
		}
	}

	// Retuning the threshold stops logging without dropping entries.
	st.SetSlowQueryThreshold(time.Hour)
	if _, err := st.MatchPath("A", "D"); err != nil {
		t.Fatal(err)
	}
	if got := len(st.SlowQueries()); got != 3 {
		t.Errorf("entries after retune = %d, want 3", got)
	}

	// The total counter keeps counting evicted entries too.
	st.Metrics()
	srv, err := st.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %q", ct)
	}
	var lines int
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	for sc.Scan() {
		var e SlowQuery
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("unparseable /debug/slow line %q: %v", sc.Text(), err)
		}
		if e.Kind == "" {
			t.Errorf("entry missing kind: %q", sc.Text())
		}
		lines++
	}
	if lines != 3 {
		t.Errorf("/debug/slow served %d entries, want 3", lines)
	}

	mresp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		MetricSlowQueries + " 3",
		MetricScatterMerge + "_count",
		MetricShardQueueWait + `_count{shard="0"}`,
		MetricShardQueueWait + fmt.Sprintf(`_count{shard="%d"}`, n-1),
	} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	st.DisableSlowQueryLog()
	if st.SlowQueries() != nil {
		t.Error("entries survive disabling")
	}
}

// TestShardedDisabledObservabilityAddsNoAllocations is the acceptance guard
// for the disabled scatter path, with one shard and with four: after tracing
// and the slow log are switched off, a query must allocate exactly what a
// never-instrumented store allocates — and so must a query on a store with
// only the metrics attached, which the coordinator records with atomics.
func TestShardedDisabledObservabilityAddsNoAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random 1/4 of Puts under the race detector, so allocation counts are nondeterministic")
	}
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) { testDisabledObservabilityAllocs(t, n) })
	}
}

func testDisabledObservabilityAllocs(t *testing.T, n int) {
	base := NewSharded(n)
	loadSCMOrders(t, base)
	inst := NewSharded(n)
	loadSCMOrders(t, inst)
	inst.EnableTracing(4)
	inst.EnableSlowQueryLog(4, 0)
	g := PathOf("A", "D", "E").ToGraph()
	if _, err := inst.Match(g); err != nil {
		t.Fatal(err)
	}
	inst.DisableTracing()
	inst.DisableSlowQueryLog()
	metered := NewSharded(n)
	loadSCMOrders(t, metered)
	metered.Metrics()

	// Warm the stores so goroutine stacks and scratch pools are paid up front.
	for _, st := range []*Store{base, inst, metered} {
		for i := 0; i < 5; i++ {
			if _, err := st.Match(g); err != nil {
				t.Fatal(err)
			}
		}
	}
	baseline := testing.AllocsPerRun(100, func() {
		if _, err := base.Match(g); err != nil {
			t.Fatal(err)
		}
	})
	disabled := testing.AllocsPerRun(100, func() {
		if _, err := inst.Match(g); err != nil {
			t.Fatal(err)
		}
	})
	if disabled > baseline {
		t.Errorf("disabled observability allocates: %.1f/op vs %.1f/op never-instrumented", disabled, baseline)
	}
	withMetrics := testing.AllocsPerRun(100, func() {
		if _, err := metered.Match(g); err != nil {
			t.Fatal(err)
		}
	})
	if withMetrics > baseline {
		t.Errorf("attached metrics allocate: %.1f/op vs %.1f/op never-instrumented", withMetrics, baseline)
	}
}
