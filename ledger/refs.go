package main

import (
	"fmt"

	"grove"
)

// exactRefs holds the answer to every pool query on a quiescent in-memory,
// single-shard store with no views and no cache, computed before the timed
// region. Read-only workloads must reproduce them bit for bit.
type exactRefs struct {
	matchAns  []*grove.Bitmap
	exprAns   []*grove.Bitmap
	aggAns    []aggRows
	aggSets   []*grove.Bitmap // the records each path aggregation matched
	scalarAns []*grove.ScalarAggResult
	batchAns  []*grove.Bitmap
}

func newExactRefs(ref *grove.Store, q *querySet) (*exactRefs, error) {
	r := &exactRefs{}
	for i, g := range q.match {
		res, err := ref.Match(q.graph(g))
		if err != nil {
			return nil, fmt.Errorf("reference match %d: %w", i, err)
		}
		r.matchAns = append(r.matchAns, res.Answer)
	}
	for i := range q.expr {
		b, err := ref.Eval(q.exprAt(i))
		if err != nil {
			return nil, fmt.Errorf("reference expr %d: %w", i, err)
		}
		r.exprAns = append(r.exprAns, b)
	}
	for i, g := range q.pathagg {
		a, err := ref.Aggregate(q.graph(g), grove.Sum)
		if err != nil {
			return nil, fmt.Errorf("reference pathagg %d: %w", i, err)
		}
		r.aggAns = append(r.aggAns, rowsOf(a))
		r.aggSets = append(r.aggSets, a.Answer)
	}
	for i, g := range q.scalar {
		s, err := ref.AggregateScalar(q.graph(g), grove.Min)
		if err != nil {
			return nil, fmt.Errorf("reference scalar %d: %w", i, err)
		}
		r.scalarAns = append(r.scalarAns, &grove.ScalarAggResult{Value: s.Value, Records: s.Records})
	}
	for i, g := range q.batch {
		res, err := ref.Match(q.graph(g))
		if err != nil {
			return nil, fmt.Errorf("reference batch member %d: %w", i, err)
		}
		r.batchAns = append(r.batchAns, res.Answer)
	}
	return r, nil
}

func (r *exactRefs) match(i int, got *grove.Result, _, _ uint32) error {
	return checkBitmap(got.Answer, r.matchAns[i])
}

func (r *exactRefs) expr(i int, got *grove.Bitmap, _, _ uint32) error {
	return checkBitmap(got, r.exprAns[i])
}

func (r *exactRefs) pathagg(i int, got *grove.AggResult, _, _ uint32) error {
	return checkAgg(got, r.aggAns[i])
}

func (r *exactRefs) scalar(i int, got *grove.ScalarAggResult, _, _ uint32) error {
	return checkScalar(got, r.scalarAns[i])
}

func (r *exactRefs) batch(i int, got *grove.Result, _, _ uint32) error {
	return checkBitmap(got.Answer, r.batchAns[i])
}

// viewRefs checks a store with aggregate views. Views must not change which
// records match, nor a MIN, so those answers are checked against the
// view-free reference. A SUM read through an aggregate view adds the path's
// measures in a different order than the row fold, and float addition does
// not reassociate, so a SUM must equal bit for bit the answer of a quiescent
// in-memory, single-shard store with the same views and no cache, and lie
// within sumTolerance of the view-free answer.
type viewRefs struct {
	*exactRefs
	viewSum []aggRows
	// reassociated counts SUM answers whose bits differ from the view-free
	// reference's.
	reassociated int
}

func newViewRefs(plain *exactRefs, viewed *grove.Store, q *querySet) (*viewRefs, error) {
	r := &viewRefs{exactRefs: plain}
	for i, g := range q.pathagg {
		a, err := viewed.Aggregate(q.graph(g), grove.Sum)
		if err != nil {
			return nil, fmt.Errorf("reference pathagg %d with views: %w", i, err)
		}
		r.viewSum = append(r.viewSum, rowsOf(a))
	}
	return r, nil
}

func (r *viewRefs) pathagg(i int, got *grove.AggResult, _, _ uint32) error {
	if err := checkAgg(got, r.viewSum[i]); err != nil {
		return fmt.Errorf("against the same views: %w", err)
	}
	if err := checkAggClose(got, r.aggAns[i]); err != nil {
		return fmt.Errorf("against no views: %w", err)
	}
	if checkAgg(got, r.aggAns[i]) != nil {
		r.reassociated++
	}
	return nil
}

// prefixRefs holds, for every pool query of the ingest workload, its answer
// over the fully loaded reference store, against which answers read during
// ingest are checked as whole-record prefixes.
type prefixRefs struct {
	*exactRefs
	scalarMin []minSteps
}

func newPrefixRefs(ref *grove.Store, q *querySet) (*prefixRefs, error) {
	exact, err := newExactRefs(ref, q)
	if err != nil {
		return nil, err
	}
	r := &prefixRefs{exactRefs: exact}
	for i, g := range q.scalar {
		a, err := ref.Aggregate(q.graph(g), grove.Min)
		if err != nil {
			return nil, fmt.Errorf("reference scalar rows %d: %w", i, err)
		}
		s := newMinSteps(a)
		// The steps must agree with the store's own scalar over the full
		// reference, or the prefix check would test the wrong fold.
		all := uint32(ref.NumRecords())
		if want := exact.scalarAns[i].Value; !sameBits(s.at(all), want) {
			return nil, fmt.Errorf("reference scalar %d: folded rows give %v, AggregateScalar %v", i, s.at(all), want)
		}
		r.scalarMin = append(r.scalarMin, s)
	}
	return r, nil
}

func (r *prefixRefs) match(i int, got *grove.Result, lo, hi uint32) error {
	return checkPrefix(got.Answer, r.matchAns[i], lo, hi)
}

func (r *prefixRefs) expr(i int, got *grove.Bitmap, lo, hi uint32) error {
	return checkPrefix(got, r.exprAns[i], lo, hi)
}

func (r *prefixRefs) pathagg(i int, got *grove.AggResult, lo, hi uint32) error {
	return checkAggPrefix(got, r.aggAns[i], r.aggSets[i], lo, hi)
}

func (r *prefixRefs) scalar(i int, got *grove.ScalarAggResult, lo, hi uint32) error {
	return checkScalarPrefix(got.Value, r.scalarMin[i], lo, hi)
}

func (r *prefixRefs) batch(i int, got *grove.Result, lo, hi uint32) error {
	return checkPrefix(got.Answer, r.batchAns[i], lo, hi)
}
