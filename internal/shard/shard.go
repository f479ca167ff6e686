// Package shard partitions the record collection horizontally into N
// independent shards, each owning its own colstore.Relation (bitmap columns,
// measure columns, result-cache slice, snapshot generation), and executes
// queries by scatter-gather: fan the query across every shard in parallel,
// then merge the partials.
//
// The merge is exact, not approximate, because everything grove computes is
// distributive over a disjoint record partition (paper §3.4): a graph query
// answer is a record-id set, so the global answer is the union of per-shard
// answers; boolean combinations distribute over disjoint partitions, so each
// shard evaluates the whole expression locally; and a path aggregation folds
// measures per record, so each record's aggregate is computed entirely
// inside its shard and cross-shard merging is pure reordering — bit-exact by
// construction, with no float re-association.
//
// Record placement is round-robin on arrival: record number i lands on shard
// i mod N at local id i div N, and its global id is local*N + shard. The
// mapping is a bijection, so global ids translate to (shard, local) with two
// integer ops, and a store loaded sequentially assigns the same global ids
// regardless of N — which is what lets the differential tests compare a
// 1-shard and an 8-shard store record-id for record-id.
//
// Writes route by the same mapping, so mutators on different shards proceed
// concurrently — each shard has its own RWMutex — eliminating the
// relation-wide write bottleneck of the single-relation store.
package shard

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"grove/internal/agg"
	"grove/internal/bitmap"
	"grove/internal/colstore"
	"grove/internal/graph"
	"grove/internal/obs"
	"grove/internal/query"
	"grove/internal/view"
	"grove/internal/wal"
)

// Unit is one shard: a relation plus the engine that queries it.
type Unit struct {
	Rel *colstore.Relation
	Eng *query.Engine

	// ingestMu serializes this shard's mutations with respect to the
	// write-ahead log: held across "append frame to log, apply in memory",
	// so the log's frame order always equals the apply order (which is what
	// makes replayed record ids deterministic). A checkpoint holds every
	// shard's ingestMu at once to cut a consistent cross-shard snapshot.
	ingestMu sync.Mutex

	// pending counts the shard sub-queries currently queued or running on
	// this shard — the per-shard queue-depth gauge on /metrics.
	pending atomic.Int64
}

// Pending returns the number of sub-queries currently queued or running.
func (u *Unit) Pending() int64 { return u.pending.Load() }

// Coordinator owns N shards and a shared element registry (the universal
// schema of §3.1 spans all shards — bitmap column ids must agree everywhere
// or per-shard answers would not be mergeable).
type Coordinator struct {
	units []*Unit
	reg   *graph.Registry

	// rr is the round-robin write cursor: Add i goes to shard rr mod N.
	rr atomic.Uint64

	// saveMu serializes coordinated saves (each shard's own saveMu already
	// serializes its generation sequence; this one keeps the cross-shard
	// manifest consistent with one save at a time).
	saveMu sync.Mutex

	// Observability hooks, all nil by default (the disabled scatter path pays
	// only nil checks). The coordinator receives every query, so it observes
	// each one once (obs.Start/Finish): the metrics bundle counts it, the
	// trace ring records one hierarchical root trace whatever N (fan-out /
	// queue-wait / merge spans, per-shard engine traces as children), and the
	// slow log one merged entry. Shard engines never carry the metrics; the
	// ring and the slow log are also attached to them so batch sub-queries —
	// executed whole-batch per shard — record flat, shard-labelled traces and
	// entries. queueWait (one histogram per shard) and mergeDur observe
	// scatter dispatch latency and merge wall time. Attach all of them before
	// serving queries, like Engine.SetTraces.
	hooks     obs.Hooks
	queueWait []*obs.Histogram
	mergeDur  *obs.Histogram

	// Write-ahead log state (internal/shard/wal.go). wal is nil until
	// AttachWALFS succeeds — the disabled mutator hot path pays one atomic
	// pointer load. walAnchor/walLoadDir describe what a Load left in
	// memory; the replay/skip counters survive for WALStats.
	wal         atomic.Pointer[walState]
	walAnchor   []walAnchor
	walLoadDir  string
	walReplayed atomic.Int64
	walSkipped  atomic.Int64
}

// New creates a coordinator over n empty shards (n < 1 is clamped to 1) with
// the given vertical partition width per shard relation.
func New(n, partitionWidth int) *Coordinator {
	if n < 1 {
		n = 1
	}
	reg := graph.NewRegistry()
	rels := make([]*colstore.Relation, n)
	for i := range rels {
		rels[i] = colstore.NewRelation(partitionWidth)
	}
	return NewFromRelations(rels, reg)
}

// NewFromRelations wraps existing relations (e.g. loaded from disk) and a
// shared registry into a coordinator. The relation order is the shard order.
func NewFromRelations(rels []*colstore.Relation, reg *graph.Registry) *Coordinator {
	c := &Coordinator{reg: reg}
	total := 0
	for i, rel := range rels {
		eng := query.NewEngine(rel, reg)
		eng.SetShard(i) // label every engine-emitted trace span with its shard
		c.units = append(c.units, &Unit{Rel: rel, Eng: eng})
		total += rel.NumRecords()
	}
	// Resume the round-robin cursor past the loaded records so ingest stays
	// balanced after a reload.
	c.rr.Store(uint64(total))
	return c
}

// NumShards returns the shard count.
func (c *Coordinator) NumShards() int { return len(c.units) }

// Unit returns shard i.
func (c *Coordinator) Unit(i int) *Unit { return c.units[i] }

// Registry returns the shared element registry.
func (c *Coordinator) Registry() *graph.Registry { return c.reg }

// --- record-id mapping ------------------------------------------------------

// globalID translates (shard, local) to the global record id.
//
//grove:hotpath
func (c *Coordinator) globalID(s int, local uint32) uint32 {
	return local*uint32(len(c.units)) + uint32(s)
}

// Locate translates a global record id to its shard and local id, reporting
// an error when no such record exists.
func (c *Coordinator) Locate(g uint32) (*Unit, uint32, error) {
	n := uint32(len(c.units))
	u := c.units[g%n]
	local := g / n
	if int64(local) >= int64(u.Rel.NumRecords()) {
		return nil, 0, fmt.Errorf("shard: record %d out of range (have %d)", g, c.NumRecords())
	}
	return u, local, nil
}

// translateInto adds shard s's local record ids into out as global ids.
func (c *Coordinator) translateInto(out, local *bitmap.Bitmap, s int) {
	n := uint32(len(c.units))
	local.Each(func(l uint32) bool {
		out.Add(l*n + uint32(s))
		return true
	})
}

// mergeBitmaps unions per-shard answers into one global-id bitmap. A single
// partial's local ids are global ids, so it passes through.
func (c *Coordinator) mergeBitmaps(subs []*bitmap.Bitmap) *bitmap.Bitmap {
	if len(subs) == 1 {
		return subs[0]
	}
	out := bitmap.New()
	for s, b := range subs {
		if b != nil {
			c.translateInto(out, b, s)
		}
	}
	return out
}

// --- mutators ---------------------------------------------------------------

// Add appends a record to the next shard in round-robin order and returns
// its global record id. Concurrent Adds to different shards proceed in
// parallel; Adds landing on the same shard serialize on that shard's lock.
// With a write-ahead log attached, durability failures are latched and
// surfaced via WALError; Append reports them per call.
func (c *Coordinator) Add(rec *graph.Record) uint32 {
	id, _ := c.Append(rec) //grovevet:ignore droppederr Add keeps its historical signature; the WAL latch surfaces the error via WALError
	return id
}

// Delete soft-deletes the record with global id g.
func (c *Coordinator) Delete(g uint32) (bool, error) {
	u, local, err := c.Locate(g)
	if err != nil {
		return false, err
	}
	w := c.wal.Load()
	if w == nil {
		return u.Rel.Delete(local)
	}
	s := int(g % uint32(len(c.units)))
	u.ingestMu.Lock() //grovevet:ignore lockorder the log append must happen under ingestMu so file order equals apply order
	lsn, werr := w.logs[s].Append(wal.Op{Kind: wal.OpDelete, Rec: local})
	was, derr := u.Rel.Delete(local)
	u.ingestMu.Unlock()
	if werr == nil {
		werr = w.logs[s].Commit(lsn)
	}
	if derr != nil {
		return was, derr
	}
	if werr != nil {
		return was, fmt.Errorf("shard %d: %w", s, werr)
	}
	return was, nil
}

// Undelete restores a soft-deleted record.
func (c *Coordinator) Undelete(g uint32) bool {
	u, local, err := c.Locate(g)
	if err != nil {
		return false
	}
	w := c.wal.Load()
	if w == nil {
		return u.Rel.Undelete(local)
	}
	s := int(g % uint32(len(c.units)))
	u.ingestMu.Lock() //grovevet:ignore lockorder the log append must happen under ingestMu so file order equals apply order
	lsn, werr := w.logs[s].Append(wal.Op{Kind: wal.OpUndelete, Rec: local})
	was := u.Rel.Undelete(local)
	u.ingestMu.Unlock()
	if werr == nil {
		w.logs[s].Commit(lsn) //grovevet:ignore droppederr Undelete keeps its bool signature; a commit failure latches and surfaces via WALError
	}
	return was
}

// Tag attaches a key=value tag to the record with global id g.
func (c *Coordinator) Tag(g uint32, key, value string) error {
	u, local, err := c.Locate(g)
	if err != nil {
		return err
	}
	w := c.wal.Load()
	if w == nil || key == "" {
		// An empty key never reaches the log: the relation rejects it, and
		// logging an op replay would refuse to decode would tear the prefix.
		return u.Rel.Tag(local, key, value)
	}
	s := int(g % uint32(len(c.units)))
	u.ingestMu.Lock() //grovevet:ignore lockorder the log append must happen under ingestMu so file order equals apply order
	lsn, werr := w.logs[s].Append(wal.Op{Kind: wal.OpTag, Rec: local, Key: key, Val: value})
	terr := u.Rel.Tag(local, key, value)
	u.ingestMu.Unlock()
	if werr == nil {
		werr = w.logs[s].Commit(lsn)
	}
	if terr != nil {
		return terr
	}
	if werr != nil {
		return fmt.Errorf("shard %d: %w", s, werr)
	}
	return werr
}

// TaggedWith returns the global ids of the records tagged key=value. Each
// shard's column is copied under that shard's read lock and the copies merge
// outside it, so the result stays valid after concurrent mutations.
func (c *Coordinator) TaggedWith(key, value string) *bitmap.Bitmap {
	subs := make([]*bitmap.Bitmap, len(c.units))
	for i, u := range c.units {
		u.Rel.BeginRead()
		subs[i] = u.Rel.FetchTagBitmap(key, value).Clone()
		u.Rel.EndRead()
	}
	return c.mergeBitmaps(subs)
}

// TagValues unions the shard value sets stored under a tag key, sorted.
func (c *Coordinator) TagValues(key string) []string {
	return unionSorted(func(u *Unit) []string { return u.Rel.TagValues(key) }, c.units)
}

// Optimize recompresses every shard's bitmap columns.
func (c *Coordinator) Optimize() {
	for _, u := range c.units {
		u.Rel.RunOptimize()
	}
}

// --- views ------------------------------------------------------------------

// MaterializeView materializes one graph view under the same name on every
// shard (views must exist uniformly or per-shard plans would diverge).
func (c *Coordinator) MaterializeView(name string, edges []colstore.EdgeID) error {
	for _, u := range c.units {
		if _, err := u.Rel.MaterializeView(name, edges); err != nil {
			return err
		}
	}
	return nil
}

// MaterializeAggViewOn materializes one aggregate view on every shard.
func (c *Coordinator) MaterializeAggViewOn(name string, path []colstore.EdgeID, fn agg.Func, measure string) error {
	for _, u := range c.units {
		if _, err := u.Rel.MaterializeAggViewOn(name, path, fn, measure); err != nil {
			return err
		}
	}
	return nil
}

// MaterializeGraphViews runs the §5 advisor (selection is purely
// workload-driven, so shard 0's advisor speaks for all) and materializes the
// selected views on every shard under the same names.
func (c *Coordinator) MaterializeGraphViews(workload []*graph.Graph, k, minSup int) ([]string, error) {
	adv := &view.Advisor{Rel: c.units[0].Rel, Reg: c.reg, MinSup: minSup}
	names, err := adv.MaterializeGraphViews(workload, k)
	if err != nil {
		return names, err
	}
	for _, name := range names {
		v := c.units[0].Rel.View(name)
		for _, u := range c.units[1:] {
			if _, err := u.Rel.MaterializeView(name, v.Edges); err != nil {
				return names, err
			}
		}
	}
	return names, nil
}

// MaterializeAggViews is MaterializeGraphViews for aggregate views.
func (c *Coordinator) MaterializeAggViews(workload []*graph.Graph, fn agg.Func, k, minSup int) ([]string, error) {
	adv := &view.Advisor{Rel: c.units[0].Rel, Reg: c.reg, MinSup: minSup}
	names, err := adv.MaterializeAggViews(workload, fn, k)
	if err != nil {
		return names, err
	}
	for _, name := range names {
		v := c.units[0].Rel.AggView(name)
		bound, ok := agg.ByName(v.Func)
		if !ok {
			return names, fmt.Errorf("shard: unknown aggregate function %q", v.Func)
		}
		for _, u := range c.units[1:] {
			if _, err := u.Rel.MaterializeAggViewOn(name, v.Path, bound, v.MeasureName); err != nil {
				return names, err
			}
		}
	}
	return names, nil
}

// DropAllViews removes every materialized view on every shard.
func (c *Coordinator) DropAllViews() {
	for _, u := range c.units {
		u.Rel.DropAllViews()
	}
}

// ClusterPartitions recomputes the vertical-partition assignment on every
// shard around the same workload.
func (c *Coordinator) ClusterPartitions(workload [][]colstore.EdgeID) error {
	for _, u := range c.units {
		if _, err := u.Rel.ClusterPartitions(workload); err != nil {
			return err
		}
	}
	return nil
}

// ViewUsage sums per-view usage counts across shards.
func (c *Coordinator) ViewUsage() map[string]int64 {
	out := make(map[string]int64)
	for _, u := range c.units {
		for name, n := range u.Rel.ViewUsage() {
			out[name] += n
		}
	}
	return out
}

// --- engine configuration ---------------------------------------------------

// SetUseViews toggles view-aware rewriting on every shard engine.
func (c *Coordinator) SetUseViews(use bool) {
	for _, u := range c.units {
		u.Eng.UseViews = use
	}
}

// SetParallelPaths toggles concurrent per-path aggregation on every shard
// engine.
func (c *Coordinator) SetParallelPaths(on bool) {
	for _, u := range c.units {
		u.Eng.ParallelPaths = on
	}
}

// EnableCache attaches a result cache to every shard engine, splitting the
// capacity evenly (capacity ≤ 0 selects each cache's default). A mutation
// invalidates only its own shard's slice — the other shards' cached answers
// remain exact because their data did not change. enable=false detaches.
func (c *Coordinator) EnableCache(enable bool, capacity int) {
	n := len(c.units)
	per := capacity
	if enable && capacity > 0 {
		per = (capacity + n - 1) / n
	}
	for _, u := range c.units {
		if enable {
			u.Eng.EnableCache(query.NewResultCache(per))
		} else {
			u.Eng.EnableCache(nil)
		}
	}
}

// CacheStats sums the per-shard result-cache counters.
func (c *Coordinator) CacheStats() query.CacheStats {
	var st query.CacheStats
	for _, u := range c.units {
		if cache := u.Eng.Cache(); cache != nil {
			s := cache.Stats()
			st.Hits += s.Hits
			st.Misses += s.Misses
			st.Evictions += s.Evictions
		}
	}
	return st
}

// SetMetrics attaches the metrics bundle (nil disables). The coordinator
// counts every query it receives once — a scattered query with its
// end-to-end time, a batch member with its slowest per-shard time — so the
// shard engines stay unmetered.
func (c *Coordinator) SetMetrics(m *obs.QueryMetrics) { c.hooks.Metrics = m }

// SetTraces attaches a trace ring (nil disables). The coordinator owns it:
// whatever the shard count, each scatter-gathered query records one
// hierarchical root trace whose children are the per-shard engine traces.
// The ring is also attached to every shard engine, so batch sub-queries
// (executed whole-batch per shard) record flat traces labelled with their
// shard id.
func (c *Coordinator) SetTraces(t *obs.TraceRing) {
	c.hooks.Traces = t
	for _, u := range c.units {
		u.Eng.SetTraces(t)
	}
}

// Traces returns the coordinator's trace ring (nil when tracing is off).
func (c *Coordinator) Traces() *obs.TraceRing { return c.hooks.Traces }

// SetSlowLog attaches a slow-query log (nil disables). Single-query scatter
// paths record one coordinator-level entry per logical query with per-shard
// timings; batch sub-queries record per-shard entries through the engines.
func (c *Coordinator) SetSlowLog(l *obs.SlowLog) {
	c.hooks.Slow = l
	for _, u := range c.units {
		u.Eng.SetSlowLog(l)
	}
}

// SlowLog returns the attached slow-query log (nil when disabled).
func (c *Coordinator) SlowLog() *obs.SlowLog { return c.hooks.Slow }

// SetScatterHistograms attaches the scatter latency observers: queueWait[s]
// records shard s's dispatch→execution wait and merge records the gather
// phase's merge wall time. len(queueWait) must equal NumShards; nil detaches.
func (c *Coordinator) SetScatterHistograms(queueWait []*obs.Histogram, merge *obs.Histogram) {
	if queueWait != nil && len(queueWait) != len(c.units) {
		queueWait = nil
	}
	c.queueWait = queueWait
	c.mergeDur = merge
}

// SetSnapshotKeep sets the per-shard snapshot retention.
func (c *Coordinator) SetSnapshotKeep(n int) {
	for _, u := range c.units {
		u.Rel.SetSnapshotKeep(n)
	}
}

// --- aggregated accounting ----------------------------------------------------

// NumRecords sums the shard record counts.
func (c *Coordinator) NumRecords() int {
	total := 0
	for _, u := range c.units {
		total += u.Rel.NumRecords()
	}
	return total
}

// NumDeleted sums the shard soft-delete counts.
func (c *Coordinator) NumDeleted() int {
	total := 0
	for _, u := range c.units {
		total += u.Rel.NumDeleted()
	}
	return total
}

// TotalMeasures sums the shard measure counts.
func (c *Coordinator) TotalMeasures() int64 {
	var total int64
	for _, u := range c.units {
		total += u.Rel.TotalMeasures()
	}
	return total
}

// SizeBytes sums the shard payload sizes (base columns + views).
func (c *Coordinator) SizeBytes() int64 {
	var total int64
	for _, u := range c.units {
		total += u.Rel.SizeBytes()
	}
	return total
}

// BaseSizeBytes sums the shard base-column sizes.
func (c *Coordinator) BaseSizeBytes() int64 {
	var total int64
	for _, u := range c.units {
		total += u.Rel.BaseSizeBytes()
	}
	return total
}

// ViewSizeBytes sums the shard view sizes.
func (c *Coordinator) ViewSizeBytes() int64 {
	var total int64
	for _, u := range c.units {
		total += u.Rel.ViewSizeBytes()
	}
	return total
}

// StorageStats sums the shard storage-residency snapshots: logical vs.
// on-disk vs. resident bytes, the per-encoding block mix, and the pooled
// buffer counters.
func (c *Coordinator) StorageStats() colstore.StorageStats {
	var total colstore.StorageStats
	for _, u := range c.units {
		st := u.Rel.StorageStats()
		total.LogicalBytes += st.LogicalBytes
		total.OnDiskBytes += st.OnDiskBytes
		total.ResidentBytes += st.ResidentBytes
		total.PagedColumns += st.PagedColumns
		total.ResidentColumns += st.ResidentColumns
		for i := range total.BlockEncodings {
			total.BlockEncodings[i] += st.BlockEncodings[i]
		}
		total.Pool.Hits += st.Pool.Hits
		total.Pool.Misses += st.Pool.Misses
		total.Pool.Evictions += st.Pool.Evictions
		total.Pool.ResidentBlocks += st.Pool.ResidentBlocks
		total.Pool.ResidentBytes += st.Pool.ResidentBytes
		total.Pool.BudgetBytes += st.Pool.BudgetBytes
	}
	return total
}

// SetPageCacheBytes splits a total buffer-pool budget evenly across the
// shards' pools (≤0 = unbounded everywhere). No-op on shards with no paged
// columns.
func (c *Coordinator) SetPageCacheBytes(n int64) {
	per := n
	if n > 0 {
		per = n / int64(len(c.units))
		if per < 1 {
			per = 1
		}
	}
	for _, u := range c.units {
		u.Rel.SetPageCacheBytes(per)
	}
}

// PageError returns the first sticky page-fault error across the shards, if
// any lazy block load has failed.
func (c *Coordinator) PageError() error {
	for _, u := range c.units {
		if err := u.Rel.PageError(); err != nil {
			return err
		}
	}
	return nil
}

// Close releases every shard relation's cached snapshot file handles and
// closes the write-ahead log (final fsync included), returning the first
// error.
func (c *Coordinator) Close() error {
	first := c.CloseWAL()
	for _, u := range c.units {
		if err := u.Rel.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// MaxPartitions returns the widest shard's vertical-partition count (shards
// share the schema, so the counts normally agree; max is the conservative
// report).
func (c *Coordinator) MaxPartitions() int {
	m := 0
	for _, u := range c.units {
		if p := u.Rel.NumPartitions(); p > m {
			m = p
		}
	}
	return m
}

// MeasureNames unions the shard measure-name sets, sorted. Records carrying
// a named measure may all have landed on one shard, so no single shard's
// list is authoritative.
func (c *Coordinator) MeasureNames() []string {
	return unionSorted(func(u *Unit) []string { return u.Rel.MeasureNames() }, c.units)
}

// TagKeys unions the shard tag-key sets, sorted.
func (c *Coordinator) TagKeys() []string {
	return unionSorted(func(u *Unit) []string { return u.Rel.TagKeys() }, c.units)
}

// unionSorted unions get over every shard, each read under that shard's read
// lock.
func unionSorted(get func(*Unit) []string, units []*Unit) []string {
	seen := make(map[string]struct{})
	for _, u := range units {
		u.Rel.BeginRead()
		for _, s := range get(u) {
			seen[s] = struct{}{}
		}
		u.Rel.EndRead()
	}
	if len(seen) == 0 {
		return nil
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// IOStats sums the shard I/O accounting snapshots.
func (c *Coordinator) IOStats() colstore.Stats {
	var total colstore.Stats
	for _, u := range c.units {
		s := u.Rel.Tracker().Snapshot()
		total.BitmapColumnsFetched += s.BitmapColumnsFetched
		total.MeasureColumnsFetched += s.MeasureColumnsFetched
		total.MeasuresScanned += s.MeasuresScanned
		total.BytesRead += s.BytesRead
		total.PartitionJoins += s.PartitionJoins
		total.RecordsReturned += s.RecordsReturned
	}
	return total
}

// ResetIOStats zeroes every shard's I/O accounting counters.
func (c *Coordinator) ResetIOStats() {
	for _, u := range c.units {
		u.Rel.Tracker().Reset()
	}
}

// IONow converts the summed shard trackers into the obs I/O shape (the
// coordinator's obs.IOSource) — the coordinator-level analogue of
// Engine.IONow, used for root-trace and slow-log deltas.
// Exact while nothing else touches the trackers; on a live store the fan-out
// span's delta is the aggregate of all concurrent shard work, while the
// per-shard child traces carry each shard's own exact deltas.
func (c *Coordinator) IONow() obs.IODelta {
	s := c.IOStats()
	return obs.IODelta{
		BitmapColumnsFetched:  int64(s.BitmapColumnsFetched),
		MeasureColumnsFetched: int64(s.MeasureColumnsFetched),
		MeasuresScanned:       s.MeasuresScanned,
		BytesRead:             s.BytesRead,
		PartitionJoins:        s.PartitionJoins,
		RecordsReturned:       s.RecordsReturned,
	}
}
