package main

import (
	"fmt"
	"math/rand"

	"grove"
	"grove/internal/workload"
)

// A generated record holds dozens of small maps (about 50 KB), so the ledger
// keeps its record supply in this compact form and rebuilds a fresh
// grove.Record for every store call, off the clock. A fresh record per call
// also keeps one store's call from warming anything the next store reuses.
type edge struct {
	from, to int32 // indexes into names
	v        float64
}

type compactRecord []edge

// corpus is a generated collection: its records, the node names they use,
// and the generator that drew them, whose walk pool the queries come from.
type corpus struct {
	names   []string
	index   map[string]int32
	records []compactRecord
	gen     *workload.Generator
}

// gnuNetworkSeed fixes the GNU-like network, as the NY-like grid is fixed:
// the run's seed draws the records and queries over it, not the network's
// hubs, whose degrees would otherwise change every cost from seed to seed.
const gnuNetworkSeed = 1

// newCorpus draws n records from the NY-like road network or the GNU-like
// power-law network (paper §7.1) with the collection's Table 2 record sizes.
func newCorpus(gnu bool, n int, seed int64) (*corpus, error) {
	spec := workload.NYSpec(n, seed)
	net := workload.NewRoadNetwork(spec.EdgeDomain)
	if gnu {
		spec = workload.GNUSpec(n, seed)
		net = workload.NewP2PNetwork(spec.EdgeDomain, gnuNetworkSeed)
	}
	gen, err := workload.NewGenerator(net, spec.MinEdges, spec.MaxEdges, spec.Seed)
	if err != nil {
		return nil, err
	}
	c := &corpus{index: make(map[string]int32), gen: gen}
	for i := 0; i < n; i++ {
		rec, err := gen.NextRecord()
		if err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
		cr := make(compactRecord, 0, rec.NumElements())
		for _, k := range rec.Elements() {
			m := rec.Measure(k)
			if !m.Valid {
				return nil, fmt.Errorf("record %d: element %v has no measure", i, k)
			}
			cr = append(cr, edge{c.intern(k.From), c.intern(k.To), m.Value})
		}
		c.records = append(c.records, cr)
	}
	return c, nil
}

func (c *corpus) intern(s string) int32 {
	if i, ok := c.index[s]; ok {
		return i
	}
	i := int32(len(c.names))
	c.names = append(c.names, s)
	c.index[s] = i
	return i
}

// record rebuilds record i as a fresh grove.Record.
func (c *corpus) record(i int) *grove.Record {
	rec := grove.NewRecord()
	for _, e := range c.records[i] {
		// Values came out of a valid record, so SetEdge cannot reject them.
		_ = rec.SetEdge(c.names[e.from], c.names[e.to], e.v)
	}
	return rec
}

// Query shapes shared by every workload: 16-edge structural queries (the
// paper's Fig. 3 size), boolean combinations of short paths, 2–8-edge paths
// for SUM aggregation and 1–4-edge paths for the scalar MIN.
const (
	matchEdges     = 16
	pathMinEdges   = 2
	pathMaxEdges   = 8
	scalarMinEdges = 1
	scalarMaxEdges = 4
	batchSize      = 100
	batchEvery     = 20 // every batchEvery-th op of the mix is a batch
)

// A query graph is kept as node-index pairs into the corpus names (a Graph
// of maps is about 30 KB) and rebuilt for every call, off the clock. Batch
// members are the exception: rebuilding a hundred of them per batch would
// make the client allocate ten times what the store does, and the garbage
// collections that triggers would run during the timed calls. The batch pool
// is built once instead.
type compactGraph [][2]int32

type compactExpr struct {
	a, b compactGraph
	diff bool // AndNot(a, b) when set, else And(a, b)
}

// querySet holds one pool of distinct queries per op kind.
type querySet struct {
	co      *corpus
	match   []compactGraph
	expr    []compactExpr
	pathagg []compactGraph
	scalar  []compactGraph
	batch   []compactGraph // a batch draws batchSize members from this pool
	// batchGraphs holds the batch pool built, for reuse across batches; the
	// store only reads the graphs it is given.
	batchGraphs []*grove.Graph
}

// newQuerySet draws n queries per single-op kind and nBatch batch members
// from the corpus generator's walk pool. With andNot, every other expression
// is a difference; without it every expression is an intersection.
func newQuerySet(c *corpus, n, nBatch int, andNot bool) *querySet {
	// Draw in chunks so the full-size Graphs of a whole pool never coexist;
	// chunking leaves the generator's sequence unchanged.
	draw := func(n int, f func(int) []*grove.Graph) []compactGraph {
		out := make([]compactGraph, 0, n)
		for len(out) < n {
			for _, g := range f(min(256, n-len(out))) {
				out = append(out, c.compact(g))
			}
		}
		return out
	}
	gen := c.gen
	q := &querySet{co: c}
	q.match = draw(n, func(k int) []*grove.Graph { return gen.UniformQueries(k, matchEdges) })
	q.pathagg = draw(n, func(k int) []*grove.Graph { return gen.UniformPathQueries(k, pathMinEdges, pathMaxEdges) })
	q.scalar = draw(n, func(k int) []*grove.Graph { return gen.UniformPathQueries(k, scalarMinEdges, scalarMaxEdges) })
	q.batch = draw(nBatch, func(k int) []*grove.Graph { return gen.UniformQueries(k, matchEdges) })
	for _, g := range q.batch {
		q.batchGraphs = append(q.batchGraphs, q.graph(g))
	}
	// Expressions combine a 2–3-edge path with a 1–2-edge path.
	as := draw(n, func(k int) []*grove.Graph { return gen.UniformPathQueries(k, 2, 3) })
	bs := draw(n, func(k int) []*grove.Graph { return gen.UniformPathQueries(k, 1, 2) })
	q.expr = make([]compactExpr, n)
	for i := range q.expr {
		q.expr[i] = compactExpr{a: as[i], b: bs[i], diff: andNot && i%2 == 0}
	}
	return q
}

func (c *corpus) compact(g *grove.Graph) compactGraph {
	out := make(compactGraph, 0, g.NumElements())
	for _, k := range g.Elements() {
		out = append(out, [2]int32{c.intern(k.From), c.intern(k.To)})
	}
	return out
}

// graph rebuilds a query graph.
func (q *querySet) graph(g compactGraph) *grove.Graph {
	out := grove.NewGraph()
	for _, e := range g {
		out.AddEdge(q.co.names[e[0]], q.co.names[e[1]])
	}
	return out
}

func (q *querySet) exprAt(i int) grove.Expr {
	e := q.expr[i]
	a, b := grove.Q(q.graph(e.a)), grove.Q(q.graph(e.b))
	if e.diff {
		return grove.AndNot(a, b)
	}
	return grove.And(a, b)
}

func (q *querySet) size(k opKind) int {
	switch k {
	case opMatch:
		return len(q.match)
	case opExpr:
		return len(q.expr)
	case opPathAgg:
		return len(q.pathagg)
	case opScalar:
		return len(q.scalar)
	default:
		return len(q.batch)
	}
}

// picker chooses the pool index of the next query of each kind.
type picker interface {
	next(k opKind) int
}

// sequential walks each pool in order, so no query repeats until a pool is
// exhausted; wraps counts how often one was.
type sequential struct {
	q     *querySet
	pos   [numKinds]int
	wraps int
}

func (s *sequential) next(k opKind) int {
	i := s.pos[k]
	s.pos[k]++
	if s.pos[k] >= s.q.size(k) {
		s.pos[k] = 0
		if k != opBatch {
			s.wraps++
		}
	}
	return i
}

// zipf draws pool indexes with Zipf(s=1.2) rank skew, the repeated and
// skewed traffic that result caches and views exploit (paper Fig. 8). The
// head is flattened (rank k has weight (zipfHead+k)^-1.2, so the first rank
// is drawn only about four times as often as the last of 2000) so that most
// of the pool, not the few queries a seed happens to rank first, carries the
// traffic: a run's latency tails then do not hinge on those few.
type zipf struct {
	q    *querySet
	rngs [numKinds]*rand.Zipf
}

func newZipf(q *querySet, seed int64) *zipf {
	z := &zipf{q: q}
	rng := rand.New(rand.NewSource(seed))
	for k := opKind(0); k < numKinds; k++ {
		z.rngs[k] = rand.NewZipf(rng, 1.2, zipfHead, uint64(q.size(k)-1))
	}
	return z
}

const zipfHead = 1000

func (z *zipf) next(k opKind) int { return int(z.rngs[k].Uint64()) }

// uniform draws pool indexes uniformly.
type uniform struct {
	q   *querySet
	rng *rand.Rand
}

func (u *uniform) next(k opKind) int { return u.rng.Intn(u.q.size(k)) }
