package main

import (
	"fmt"
	"math"
	"sort"

	"grove"
)

// sameBits compares two floats bit for bit, so -0 differs from +0 and NaNs
// with different payloads differ from each other.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func checkBitmap(got, want *grove.Bitmap) error {
	if got == nil || !got.Equals(want) {
		return fmt.Errorf("answer has %d records, reference %d (or different ids)", cardinality(got), cardinality(want))
	}
	return nil
}

func cardinality(b *grove.Bitmap) int {
	if b == nil {
		return -1
	}
	return b.Cardinality()
}

// aggRows is a path aggregation answer reduced to what the checks compare:
// the record ids and each path's values, copied out of the result.
type aggRows struct {
	ids  []uint32
	vals [][]float64
}

func rowsOf(a *grove.AggResult) aggRows {
	r := aggRows{ids: append([]uint32(nil), a.RecordIDs...), vals: make([][]float64, len(a.Values))}
	for p, v := range a.Values {
		r.vals[p] = append([]float64(nil), v...)
	}
	return r
}

// checkAggShape requires the same records and paths.
func checkAggShape(got *grove.AggResult, want aggRows) error {
	if len(got.RecordIDs) != len(want.ids) || len(got.Values) != len(want.vals) {
		return fmt.Errorf("aggregate has %d records × %d paths, reference %d × %d",
			len(got.RecordIDs), len(got.Values), len(want.ids), len(want.vals))
	}
	for i, id := range want.ids {
		if got.RecordIDs[i] != id {
			return fmt.Errorf("aggregate row %d is record %d, reference %d", i, got.RecordIDs[i], id)
		}
	}
	for p, v := range got.Values {
		if len(v) != len(want.ids) {
			return fmt.Errorf("aggregate path %d has %d values for %d records", p, len(v), len(want.ids))
		}
	}
	return nil
}

// checkAgg requires the same records, paths and bit-identical values.
func checkAgg(got *grove.AggResult, want aggRows) error {
	if err := checkAggShape(got, want); err != nil {
		return err
	}
	for p := range want.vals {
		for i, w := range want.vals[p] {
			if g := got.Values[p][i]; !sameBits(g, w) {
				return fmt.Errorf("record %d path %d: %v (%#x), reference %v (%#x)",
					want.ids[i], p, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
	return nil
}

// sumTolerance bounds the relative difference between two SUMs of the same
// few measures added in different orders.
const sumTolerance = 1e-9

// checkAggClose requires the same records and paths, and values that are
// bit-identical or, both finite, within sumTolerance of each other.
func checkAggClose(got *grove.AggResult, want aggRows) error {
	if err := checkAggShape(got, want); err != nil {
		return err
	}
	for p := range want.vals {
		for i, w := range want.vals[p] {
			g := got.Values[p][i]
			if sameBits(g, w) {
				continue
			}
			if math.IsNaN(g) || math.IsNaN(w) || math.IsInf(g, 0) || math.IsInf(w, 0) ||
				math.Abs(g-w) > sumTolerance*math.Max(math.Abs(g), math.Abs(w)) {
				return fmt.Errorf("record %d path %d: %v, reference %v", want.ids[i], p, g, w)
			}
		}
	}
	return nil
}

func checkScalar(got, want *grove.ScalarAggResult) error {
	if !sameBits(got.Value, want.Value) || got.Records != want.Records {
		return fmt.Errorf("scalar %v over %d records, reference %v over %d", got.Value, got.Records, want.Value, want.Records)
	}
	return nil
}

// rankBelow returns |b ∩ [0, n)|.
func rankBelow(b *grove.Bitmap, n uint32) int {
	if n == 0 {
		return 0
	}
	return b.Rank(n - 1)
}

// checkPrefix checks an answer read while records were being appended,
// against full, the answer over the fully loaded reference store. lo
// appends were acknowledged before the query began and fewer than hi had
// begun when it returned, so a correct answer is the answer over some
// whole-record prefix between the two: every id is below hi and belongs to
// the full answer (nothing torn or invented), and every expected id below lo
// is present (no acknowledged record missing). One pass over the answer plus
// a rank lookup.
func checkPrefix(ans, full *grove.Bitmap, lo, hi uint32) error {
	if ans == nil {
		return fmt.Errorf("nil answer")
	}
	below := 0
	var err error
	ans.Each(func(id uint32) bool {
		switch {
		case id >= hi:
			err = fmt.Errorf("record %d returned before its append began (%d begun)", id, hi)
		case !full.Contains(id):
			err = fmt.Errorf("record %d is not in the full answer: a torn read", id)
		case id < lo:
			below++
		}
		return err == nil
	})
	if err != nil {
		return err
	}
	if want := rankBelow(full, lo); below != want {
		return fmt.Errorf("%d acknowledged matching records missing below record %d", want-below, lo)
	}
	return nil
}

// checkAggPrefix is checkPrefix for a path aggregation, plus bit-identical
// values for every record returned.
func checkAggPrefix(got *grove.AggResult, ref aggRows, full *grove.Bitmap, lo, hi uint32) error {
	if err := checkPrefix(got.Answer, full, lo, hi); err != nil {
		return err
	}
	if len(got.Values) != len(ref.vals) {
		return fmt.Errorf("aggregate has %d paths, reference %d", len(got.Values), len(ref.vals))
	}
	for i, id := range got.RecordIDs {
		j := sort.Search(len(ref.ids), func(j int) bool { return ref.ids[j] >= id })
		if j == len(ref.ids) || ref.ids[j] != id {
			return fmt.Errorf("aggregate row for record %d has no reference row", id)
		}
		for p := range ref.vals {
			if !sameBits(got.Values[p][i], ref.vals[p][j]) {
				return fmt.Errorf("record %d path %d: %v, reference %v", id, p, got.Values[p][i], ref.vals[p][j])
			}
		}
	}
	return nil
}

// minSteps is the running MIN of the per-record path minima over the
// reference store in id order: at ids[j] the running minimum drops to
// vals[j].
type minSteps struct {
	ids  []uint32
	vals []float64
}

// newMinSteps folds the per-record values of a MIN path aggregation over
// the reference store, skipping records whose paths are all NULL.
func newMinSteps(ref *grove.AggResult) minSteps {
	var s minSteps
	acc := math.Inf(1)
	for i, v := range ref.FoldAcrossPaths() {
		if !math.IsNaN(v) && v < acc {
			acc = v
			s.ids = append(s.ids, ref.RecordIDs[i])
			s.vals = append(s.vals, v)
		}
	}
	return s
}

// at returns the running minimum over ids [0, n), NaN if no record
// contributes.
func (s minSteps) at(n uint32) float64 {
	j := sort.Search(len(s.ids), func(j int) bool { return s.ids[j] >= n })
	if j == 0 {
		return math.NaN()
	}
	return s.vals[j-1]
}

// checkScalarPrefix accepts a scalar MIN read during ingest when it equals
// the minimum over some whole-record prefix of length between lo and hi.
func checkScalarPrefix(got float64, s minSteps, lo, hi uint32) error {
	if sameBits(got, s.at(lo)) {
		return nil
	}
	for j, id := range s.ids {
		if id >= lo && id < hi && sameBits(got, s.vals[j]) {
			return nil
		}
	}
	return fmt.Errorf("scalar %v is no prefix minimum between %d and %d records (%v at %d)", got, lo, hi, s.at(lo), lo)
}
