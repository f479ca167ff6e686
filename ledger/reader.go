package main

import (
	"fmt"
	"time"

	"grove"
)

type opKind int

const (
	opMatch opKind = iota
	opExpr
	opPathAgg
	opScalar
	opBatch
	numKinds
	numSingleKinds = opBatch
)

var kindNames = [numKinds]string{"match", "expr", "pathagg", "scalar", "batch"}

// kindAt is the op mix: the four single-query kinds in rotation, with every
// batchEvery-th op a batch instead.
func kindAt(i int) opKind {
	if i%batchEvery == batchEvery-1 {
		return opBatch
	}
	return opKind((i - i/batchEvery) % int(numSingleKinds))
}

// verifier checks one answer against the workload's reference. lo and hi
// bound the whole-record prefix the answer may reflect; read-only workloads
// ignore them.
type verifier interface {
	match(i int, got *grove.Result, lo, hi uint32) error
	expr(i int, got *grove.Bitmap, lo, hi uint32) error
	pathagg(i int, got *grove.AggResult, lo, hi uint32) error
	scalar(i int, got *grove.ScalarAggResult, lo, hi uint32) error
	batch(i int, got *grove.Result, lo, hi uint32) error // i indexes the batch pool
}

// reader is one closed-loop client issuing the op mix: it sends the next
// query only when the previous answer is back and checked.
type reader struct {
	st   *grove.Store
	q    *querySet
	pick picker
	ver  verifier
	// workers is the batch parallelism: the cores no other client goroutine
	// of the workload keeps busy.
	workers int
	// lo and hi bound the visible prefix (nil on read-only workloads): lo is
	// read before a query starts, hi after it returns.
	lo, hi func() uint32

	i       int // position in the op mix
	lat     [numKinds]samples
	busy    time.Duration // time spent inside store calls
	ops     int           // store calls; a batch is one
	queries int           // queries executed; a batch counts its members
	failed  int
	errs    []string // the first few failures, for the report

	// Zone-map block counts of the scalar answers (a per-layer input).
	blocksScanned, blocksSkipped int64
}

func (r *reader) bounds() uint32 {
	if r.lo == nil {
		return 0
	}
	return r.lo()
}

func (r *reader) fail(k opKind, err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf("%s op %d: %v", kindNames[k], r.i, err))
	}
}

// step issues and checks the next op of the mix.
func (r *reader) step() {
	k := kindAt(r.i)
	var idx []int
	if k == opBatch {
		idx = make([]int, batchSize)
		for j := range idx {
			idx[j] = r.pick.next(k)
		}
	} else {
		idx = []int{r.pick.next(k)}
	}
	// Build the query objects before the clock starts.
	var (
		g     *grove.Graph
		e     grove.Expr
		batch []*grove.Graph
	)
	switch k {
	case opMatch:
		g = r.q.graph(r.q.match[idx[0]])
	case opExpr:
		e = r.q.exprAt(idx[0])
	case opPathAgg:
		g = r.q.graph(r.q.pathagg[idx[0]])
	case opScalar:
		g = r.q.graph(r.q.scalar[idx[0]])
	case opBatch:
		batch = make([]*grove.Graph, batchSize)
		for j, p := range idx {
			batch[j] = r.q.batchGraphs[p]
		}
	}

	lo := r.bounds()
	var (
		res     *grove.Result
		bits    *grove.Bitmap
		agg     *grove.AggResult
		scalar  *grove.ScalarAggResult
		results []*grove.Result
		err     error
	)
	start := time.Now()
	switch k {
	case opMatch:
		res, err = r.st.Match(g)
	case opExpr:
		bits, err = r.st.Eval(e)
	case opPathAgg:
		agg, err = r.st.Aggregate(g, grove.Sum)
	case opScalar:
		scalar, err = r.st.AggregateScalar(g, grove.Min)
	case opBatch:
		results, err = r.st.ExecuteBatch(batch, r.workers)
	}
	d := time.Since(start)
	hi := lo
	if r.hi != nil {
		hi = r.hi()
	}

	r.lat[k].add(d)
	r.busy += d
	r.ops++
	r.queries += len(idx)
	r.i++
	if err == nil {
		switch k {
		case opMatch:
			err = r.ver.match(idx[0], res, lo, hi)
		case opExpr:
			err = r.ver.expr(idx[0], bits, lo, hi)
		case opPathAgg:
			err = r.ver.pathagg(idx[0], agg, lo, hi)
		case opScalar:
			err = r.ver.scalar(idx[0], scalar, lo, hi)
			r.blocksScanned += int64(scalar.BlocksScanned)
			r.blocksSkipped += int64(scalar.BlocksSkipped)
		case opBatch:
			for j, p := range idx {
				if err = r.ver.batch(p, results[j], lo, hi); err != nil {
					break
				}
			}
		}
	}
	if err == nil {
		err = r.st.PageError()
	}
	if err != nil {
		r.fail(k, err)
	}
}

// runUntil issues ops until the deadline passes.
func (r *reader) runUntil(deadline time.Time) {
	for time.Now().Before(deadline) {
		r.step()
	}
}

// slice counts a reader's ops and busy time over part of a run.
type slice struct {
	ops  int
	busy time.Duration
}

func (r *reader) mark() slice { return slice{r.ops, r.busy} }

func (s slice) rate() float64 { return float64(s.ops) / s.busy.Seconds() }
