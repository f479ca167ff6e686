package main

import (
	"math"
	"testing"
	"time"

	"grove"
	"grove/internal/bitmap"
	"grove/internal/query"
)

func ids(v ...uint32) *grove.Bitmap { return bitmap.FromSlice(v) }

// The full answer of the prefix tests: records 1, 4, 6 and 9 match once
// everything is loaded.
var full = ids(1, 4, 6, 9)

func TestCheckPrefixAcceptsWholeRecordPrefixes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ans    *grove.Bitmap
		lo, hi uint32
	}{
		{"everything loaded", ids(1, 4, 6, 9), 10, 10},
		{"prefix of 5", ids(1, 4), 5, 5},
		{"in-flight record 6 not yet visible", ids(1, 4), 6, 7},
		{"in-flight record 6 already visible", ids(1, 4, 6), 6, 7},
		{"no record acknowledged", ids(), 0, 1},
	} {
		if err := checkPrefix(tc.ans, full, tc.lo, tc.hi); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

func TestCheckPrefixFlagsTornAnswer(t *testing.T) {
	// Record 5 is loaded but lacks an edge the query excludes: an AndNot
	// read mid-ingest returns it although the full answer does not.
	if err := checkPrefix(ids(1, 4, 5), full, 6, 6); err == nil {
		t.Fatal("an id outside the full answer passed")
	}
}

func TestCheckPrefixFlagsMissingAcknowledgedRecord(t *testing.T) {
	// Record 4 was acknowledged before the query began (lo = 5).
	if err := checkPrefix(ids(1), full, 5, 6); err == nil {
		t.Fatal("a missing acknowledged record passed")
	}
}

func TestCheckPrefixFlagsRecordFromTheFuture(t *testing.T) {
	// Record 9's append had not begun when the query returned (hi = 8).
	if err := checkPrefix(ids(1, 4, 6, 9), full, 7, 8); err == nil {
		t.Fatal("a record whose append had not begun passed")
	}
}

func aggOf(ids []uint32, vals ...float64) *grove.AggResult {
	return &grove.AggResult{RecordIDs: ids, Values: [][]float64{vals}}
}

func TestCheckAggIsBitExact(t *testing.T) {
	nan1 := math.Float64frombits(0x7ff8000000000001)
	nan2 := math.Float64frombits(0x7ff8000000000002)
	for _, tc := range []struct {
		name      string
		got, want float64
		equal     bool
	}{
		{"same value", 1.5, 1.5, true},
		{"-0 vs +0", math.Copysign(0, -1), 0, false},
		{"NaN payloads differ", nan1, nan2, false},
		{"same NaN", nan1, nan1, true},
		{"one ulp apart", 222.44398774807348, math.Nextafter(222.44398774807348, 300), false},
	} {
		want := rowsOf(aggOf([]uint32{3}, tc.want))
		err := checkAgg(aggOf([]uint32{3}, tc.got), want)
		if (err == nil) != tc.equal {
			t.Errorf("%s: checkAgg error %v, want equal=%v", tc.name, err, tc.equal)
		}
		sErr := checkScalar(&grove.ScalarAggResult{Value: tc.got, Records: 1}, &grove.ScalarAggResult{Value: tc.want, Records: 1})
		if (sErr == nil) != tc.equal {
			t.Errorf("%s: checkScalar error %v, want equal=%v", tc.name, sErr, tc.equal)
		}
	}
}

func TestCheckAggFlagsDifferentRecords(t *testing.T) {
	if err := checkAgg(aggOf([]uint32{2}, 1), rowsOf(aggOf([]uint32{3}, 1))); err == nil {
		t.Fatal("different record ids passed")
	}
	if err := checkAgg(aggOf([]uint32{2, 3}, 1, 2), rowsOf(aggOf([]uint32{2}, 1))); err == nil {
		t.Fatal("an extra row passed")
	}
}

func TestCheckAggCloseAllowsOnlyReassociation(t *testing.T) {
	// 0.1 + (0.2 + 0.3) and (0.1 + 0.2) + 0.3 differ in the last bit.
	a, b, c := 0.1, 0.2, 0.3
	left, right := (a+b)+c, a+(b+c)
	if sameBits(left, right) {
		t.Fatal("the two orders agree; pick other summands")
	}
	want := rowsOf(aggOf([]uint32{3}, left))
	if err := checkAggClose(aggOf([]uint32{3}, right), want); err != nil {
		t.Errorf("reassociated sum: %v", err)
	}
	for _, tc := range []struct {
		name string
		got  *grove.AggResult
	}{
		{"wrong value", aggOf([]uint32{3}, left+1e-6)},
		{"NaN for a value", aggOf([]uint32{3}, math.NaN())},
		{"different record", aggOf([]uint32{4}, left)},
	} {
		if err := checkAggClose(tc.got, want); err == nil {
			t.Errorf("%s passed", tc.name)
		}
	}
}

func TestCheckScalarPrefix(t *testing.T) {
	// Per-record minima of records 0..4: 5, NULL, 3, 4, 1.
	ref := &grove.AggResult{
		RecordIDs: []uint32{0, 2, 3, 4},
		Paths:     []grove.Path{grove.PathOf("a", "b")},
		Values:    [][]float64{{5, 3, 4, 1}},
		Query:     &query.PathAggQuery{Agg: grove.Min},
	}
	s := newMinSteps(ref)
	for _, tc := range []struct {
		got    float64
		lo, hi uint32
		ok     bool
	}{
		{5, 1, 2, true},  // prefix of 1 or 2 records
		{3, 1, 3, true},  // the prefix of 3 records is allowed
		{3, 1, 2, false}, // record 2 had not begun
		{5, 3, 4, false}, // record 2 was acknowledged
		{1, 4, 5, true},
		{4, 0, 5, false}, // never a prefix minimum
	} {
		err := checkScalarPrefix(tc.got, s, tc.lo, tc.hi)
		if (err == nil) != tc.ok {
			t.Errorf("scalar %v in [%d,%d]: error %v, want ok=%v", tc.got, tc.lo, tc.hi, err, tc.ok)
		}
	}
	if !math.IsNaN(s.at(0)) {
		t.Errorf("empty prefix minimum = %v, want NaN", s.at(0))
	}
}

func TestQuantileRefusesUnsupportedTail(t *testing.T) {
	var s samples
	for i := 0; i < 999; i++ {
		s.add(time.Duration(i) * time.Microsecond)
	}
	if _, err := s.quantile(0.99); err == nil {
		t.Fatal("p99 of 999 samples leaves 9 beyond it, yet was reported")
	}
	if got := s.summarize(); got.Tail != "p90" || got.N != 999 {
		t.Fatalf("summary of 999 samples = %+v, want tail p90", got)
	}
	s.add(999 * time.Microsecond)
	v, err := s.quantile(0.99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples: %v", err)
	}
	if v != 0.989 {
		t.Fatalf("p99 of 0..999µs = %vms, want 0.989", v)
	}
	if got := s.summarize(); got.Tail != "p99" {
		t.Fatalf("summary of 1000 samples = %+v, want tail p99", got)
	}
	if p50, _ := s.quantile(0.5); p50 != 0.499 {
		t.Fatalf("median = %v, want 0.499", p50)
	}
}
