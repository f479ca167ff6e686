package shard

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"grove/internal/gpath"
	"grove/internal/graph"
	"grove/internal/query"
)

// The differential harness: build the same record corpus into a 1-shard and
// an n-shard coordinator and assert that the full query surface — structural
// matches, boolean expressions, path aggregations (values compared by
// Float64bits, so NaN and signed zero must survive the merge), batches and
// text statements — answers bit-identically, including the total
// MeasuresScanned accounting (every record is scanned exactly once, in
// exactly one shard).
//
// The reference answers come from the 1-shard coordinator's bare engine
// (c1.Unit(0).Eng), never from a Coordinator query entry point, so n=1 is a
// real test row: the one-shard scatter-gather and merge path is compared
// bit for bit against the single relation it wraps.

// fig2Records transcribes the paper's running example (Fig. 2 / Table 1):
// three records over edges e1=(A,B) e2=(A,C) e3=(C,E) e4=(A,D) e5=(D,E)
// e6=(E,F) e7=(F,G).
func fig2Records(t testing.TB) []*graph.Record {
	t.Helper()
	edges := []graph.EdgeKey{
		graph.E("A", "B"), graph.E("A", "C"), graph.E("C", "E"),
		graph.E("A", "D"), graph.E("D", "E"), graph.E("E", "F"), graph.E("F", "G"),
	}
	const absent = -1e300
	measures := [3][7]float64{
		{3, 4, 2, 1, 2, absent, absent},
		{absent, 1, 2, 2, 1, 4, 1},
		{absent, absent, absent, 5, 4, 3, 1},
	}
	var out []*graph.Record
	for _, m := range measures {
		rec := graph.NewRecord()
		for i, k := range edges {
			if m[i] != absent {
				if err := rec.SetEdge(k.From, k.To, m[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		out = append(out, rec)
	}
	return out
}

// randomRecords synthesizes records over a layered DAG universe (A0..D3),
// mixing in zero, negative-zero and negative measures so the float merge has
// something to get wrong.
func randomRecords(t testing.TB, rng *rand.Rand, numRecords int) []*graph.Record {
	t.Helper()
	var universe []graph.EdgeKey
	name := func(layer, i int) string {
		return string(rune('A'+layer)) + string(rune('0'+i))
	}
	for layer := 0; layer < 3; layer++ {
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				universe = append(universe, graph.E(name(layer, i), name(layer+1, j)))
			}
		}
	}
	measurePool := []float64{1, 2, 9, -3, 0.5, 0.0, math.Copysign(0, -1), -7.25}
	var out []*graph.Record
	for r := 0; r < numRecords; r++ {
		rec := graph.NewRecord()
		n := 3 + rng.Intn(len(universe)/2)
		for k := 0; k < n; k++ {
			e := universe[rng.Intn(len(universe))]
			if err := rec.SetEdge(e.From, e.To, measurePool[rng.Intn(len(measurePool))]); err != nil {
				t.Fatal(err)
			}
		}
		out = append(out, rec)
	}
	return out
}

// buildPair loads records sequentially into a 1-shard and an n-shard
// coordinator, asserting both assign the same global ids.
func buildPair(t testing.TB, records []*graph.Record, n int) (*Coordinator, *Coordinator) {
	t.Helper()
	c1, cn := New(1, 0), New(n, 0)
	for i, rec := range records {
		id1, idn := c1.Add(rec), cn.Add(rec)
		if id1 != idn || id1 != uint32(i) {
			t.Fatalf("record %d: ids diverge (1-shard %d, %d-shard %d)", i, id1, n, idn)
		}
	}
	return c1, cn
}

func diffMatch(t *testing.T, c1, cn *Coordinator, q *query.GraphQuery) {
	t.Helper()
	r1, err1 := c1.Unit(0).Eng.ExecuteGraphQueryContext(context.Background(), q)
	rn, errn := cn.MatchContext(context.Background(), q)
	if (err1 == nil) != (errn == nil) {
		t.Fatalf("%s: errors diverge: %v vs %v", q.String(), err1, errn)
	}
	if err1 != nil {
		return
	}
	if !r1.Answer.Equals(rn.Answer) {
		t.Fatalf("%s: answers diverge:\n1-shard %v\nn-shard %v", q.String(), r1.Answer, rn.Answer)
	}
}

// diffAgg compares aggregation results bit-for-bit: record order, per-path
// values (by Float64bits — NaN vs NaN must agree, 0.0 vs -0.0 must not), and
// the fetched-measure totals.
func diffAgg(t *testing.T, c1, cn *Coordinator, q *query.PathAggQuery) {
	t.Helper()
	r1, err1 := c1.Unit(0).Eng.ExecutePathAggQueryContext(context.Background(), q)
	rn, errn := cn.AggregateContext(context.Background(), q)
	if (err1 == nil) != (errn == nil) {
		t.Fatalf("%s: errors diverge: %v vs %v", q.String(), err1, errn)
	}
	if err1 != nil {
		return
	}
	assertAggEqual(t, q.String(), r1, rn)
}

func assertAggEqual(t *testing.T, label string, r1, rn *query.AggResult) {
	t.Helper()
	if !r1.Answer.Equals(rn.Answer) {
		t.Fatalf("%s: answer bitmaps diverge", label)
	}
	if len(r1.RecordIDs) != len(rn.RecordIDs) {
		t.Fatalf("%s: %d vs %d records", label, len(r1.RecordIDs), len(rn.RecordIDs))
	}
	for i := range r1.RecordIDs {
		if r1.RecordIDs[i] != rn.RecordIDs[i] {
			t.Fatalf("%s: record order diverges at %d: %d vs %d", label, i, r1.RecordIDs[i], rn.RecordIDs[i])
		}
	}
	if len(r1.Paths) != len(rn.Paths) || len(r1.Values) != len(rn.Values) {
		t.Fatalf("%s: path sets diverge", label)
	}
	for p := range r1.Values {
		for i := range r1.Values[p] {
			b1, bn := math.Float64bits(r1.Values[p][i]), math.Float64bits(rn.Values[p][i])
			if b1 != bn {
				t.Fatalf("%s: value[path %d][%d] diverges: %x (%v) vs %x (%v)",
					label, p, i, b1, r1.Values[p][i], bn, rn.Values[p][i])
			}
		}
	}
}

func TestDifferentialFig2Corpus(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8} {
		c1, cn := buildPair(t, fig2Records(t), n)

		for _, nodes := range [][]string{
			{"A", "B"}, {"A", "C", "E"}, {"A", "D", "E"}, {"A", "C", "E", "F"},
			{"E", "F", "G"}, {"A", "D", "E", "F", "G"}, {"X", "Y"},
		} {
			diffMatch(t, c1, cn, query.FromPath(gpath.Closed(nodes...)))
		}

		for _, f := range []query.AggFunc{query.Sum, query.Min, query.Max, query.Count} {
			for _, nodes := range [][]string{
				{"A", "C", "E", "F"}, {"A", "D", "E"}, {"E", "F", "G"}, {"A", "B"},
			} {
				diffAgg(t, c1, cn, query.NewPathAggQuery(gpath.Closed(nodes...).ToGraph(), f))
			}
		}

		// The §3.4 example must still read SUM[A,C,E,F] = 7 on record 2 (the
		// second record) after the merge — sanity that the harness itself
		// queries what it claims to.
		r, err := cn.AggregateContext(context.Background(),
			query.NewPathAggQuery(gpath.Closed("A", "C", "E", "F").ToGraph(), query.Sum))
		if err != nil {
			t.Fatal(err)
		}
		if len(r.RecordIDs) != 1 || r.RecordIDs[0] != 1 || r.Values[0][0] != 7 {
			t.Fatalf("n=%d: SUM[A,C,E,F] = %v @ %v", n, r.Values, r.RecordIDs)
		}

		// Boolean expressions and text statements.
		expr := query.Diff{
			A: query.Or{Operands: []query.Expr{
				query.Leaf{Q: query.FromPath(gpath.Closed("A", "D", "E"))},
				query.Leaf{Q: query.FromPath(gpath.Closed("A", "B"))},
			}},
			B: query.Leaf{Q: query.FromPath(gpath.Closed("F", "G"))},
		}
		b1, err1 := c1.Unit(0).Eng.EvalExprContext(context.Background(), expr)
		bn, errn := cn.EvalExprContext(context.Background(), expr)
		if err1 != nil || errn != nil {
			t.Fatalf("eval: %v / %v", err1, errn)
		}
		if !b1.Equals(bn) {
			t.Fatalf("n=%d: expression answers diverge", n)
		}

		for _, text := range []string{
			"[A,D,E] AND NOT [A,B]",
			"SUM [A,C,E,F]",
			"MAX [A,D,E,F,G]",
			"([A,B] OR [F,G]) AND [A,D]",
		} {
			s1, err1 := c1.Unit(0).Eng.ExecuteStatementContext(context.Background(), text)
			sn, errn := cn.ExecuteStatementContext(context.Background(), text)
			if (err1 == nil) != (errn == nil) {
				t.Fatalf("%q: errors diverge: %v vs %v", text, err1, errn)
			}
			if err1 != nil {
				continue
			}
			switch {
			case s1.IDs != nil:
				if sn.IDs == nil || !s1.IDs.Equals(sn.IDs) {
					t.Fatalf("%q: statement answers diverge", text)
				}
			case s1.Agg != nil:
				if sn.Agg == nil {
					t.Fatalf("%q: statement kinds diverge", text)
				}
				assertAggEqual(t, text, s1.Agg, sn.Agg)
			}
		}
	}
}

func TestDifferentialRandomCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	records := randomRecords(t, rng, 120)
	for _, n := range []int{1, 2, 8} {
		c1, cn := buildPair(t, records, n)

		// Random structural queries drawn from stored records (usually
		// non-empty answers) plus their aggregations.
		for trial := 0; trial < 40; trial++ {
			rec := records[rng.Intn(len(records))]
			elems := rec.Elements()
			g := graph.NewGraph()
			for i, m := 0, 1+rng.Intn(4); i < m; i++ {
				g.AddElement(elems[rng.Intn(len(elems))])
			}
			diffMatch(t, c1, cn, query.NewGraphQuery(g))
			f := []query.AggFunc{query.Sum, query.Min, query.Max, query.Count}[trial%4]
			diffAgg(t, c1, cn, query.NewPathAggQuery(g, f))
		}

		// Deletions must mask the same global ids on both sides.
		for _, id := range []uint32{3, 17, 44, 101} {
			if _, err := c1.Delete(id); err != nil {
				t.Fatal(err)
			}
			if _, err := cn.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		diffMatch(t, c1, cn, query.FromPath(gpath.Closed("A0", "B0")))
	}
}

func TestDifferentialBatchesAndScanTotals(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	records := randomRecords(t, rng, 80)

	var graphQs []*query.GraphQuery
	var aggQs []*query.PathAggQuery
	for trial := 0; trial < 24; trial++ {
		rec := records[rng.Intn(len(records))]
		elems := rec.Elements()
		g := graph.NewGraph()
		for i, m := 0, 1+rng.Intn(3); i < m; i++ {
			g.AddElement(elems[rng.Intn(len(elems))])
		}
		graphQs = append(graphQs, query.NewGraphQuery(g))
		aggQs = append(aggQs, query.NewPathAggQuery(g, query.Sum))
	}

	for _, n := range []int{1, 8} {
		c1, cn := buildPair(t, records, n)
		diffBatches(t, c1, cn, graphQs, aggQs)
	}
}

func diffBatches(t *testing.T, c1, cn *Coordinator, graphQs []*query.GraphQuery, aggQs []*query.PathAggQuery) {
	t.Helper()
	ref := query.NewBatchExecutor(c1.Unit(0).Eng, 4)
	res1, errs1 := ref.ExecuteGraphQueriesContext(context.Background(), graphQs)
	resn, errsn := cn.ExecuteGraphBatchContext(context.Background(), graphQs, 4)
	for i := range graphQs {
		if (errs1[i] == nil) != (errsn[i] == nil) {
			t.Fatalf("batch %d: errors diverge: %v vs %v", i, errs1[i], errsn[i])
		}
		if errs1[i] != nil {
			continue
		}
		if !res1[i].Answer.Equals(resn[i].Answer) {
			t.Fatalf("batch %d: answers diverge", i)
		}
	}

	// MeasuresScanned totals: run the aggregation batch with clean counters
	// on both sides; the shard partition must scan each record's measures
	// exactly once, so the totals agree exactly.
	c1.ResetIOStats()
	cn.ResetIOStats()
	ares1, aerrs1 := ref.ExecutePathAggQueriesContext(context.Background(), aggQs)
	aresn, aerrsn := cn.ExecutePathAggBatchContext(context.Background(), aggQs, 4)
	for i := range aggQs {
		if (aerrs1[i] == nil) != (aerrsn[i] == nil) {
			t.Fatalf("agg batch %d: errors diverge: %v vs %v", i, aerrs1[i], aerrsn[i])
		}
		if aerrs1[i] != nil {
			continue
		}
		assertAggEqual(t, aggQs[i].String(), ares1[i], aresn[i])
	}
	s1, sn := c1.IOStats(), cn.IOStats()
	if s1.MeasuresScanned != sn.MeasuresScanned {
		t.Fatalf("MeasuresScanned diverges: 1-shard %d, %d-shard %d", s1.MeasuresScanned, cn.NumShards(), sn.MeasuresScanned)
	}
	if s1.RecordsReturned != sn.RecordsReturned {
		t.Fatalf("RecordsReturned diverges: 1-shard %d, %d-shard %d", s1.RecordsReturned, cn.NumShards(), sn.RecordsReturned)
	}
}
