package main

import (
	"fmt"
	"path/filepath"
	"time"

	"grove"
	"grove/internal/colstore"
	"grove/internal/fsio"
	"grove/internal/graph"
	"grove/internal/view"
	"grove/internal/wal"
)

// counters is a snapshot of the store's cumulative query-path counters.
type counters struct {
	io      grove.IOStats
	cache   grove.CacheStats
	views   int64
	storage grove.StorageStats
}

func snapshotCounters(st *grove.Store) counters {
	c := counters{io: st.IOStatsSnapshot(), cache: st.CacheStats(), storage: st.StorageStats()}
	for _, n := range st.ViewUsage() {
		c.views += n
	}
	return c
}

// spanPhases maps trace phases to the per-layer metric that reports them.
var spanPhases = map[string]string{
	"plan":         "query.plan_us",
	"intersect":    "bitmap.intersect_us",
	"fetch":        "colstore.fetch_us",
	"measure-scan": "colstore.measure_scan_us",
	"block-skip":   "colstore.block_skip_us",
	"aggregate":    "agg.fold_us",
	"fan-out":      "shard.fanout_us",
	"queue-wait":   "shard.queue_wait_us",
	"merge":        "shard.merge_us",
}

// queryLayers reports the query-path layers of a traced run: span time per
// traced query (a top-level trace, its child traces included) and counter
// deltas per query executed.
func queryLayers(out *outcome, st *grove.Store, r *reader, traces []grove.Trace, before counters, overhead float64) {
	for _, m := range perLayer {
		out.layers[m.name] = 0
	}
	sums := map[string]time.Duration{}
	var walk func(t grove.Trace)
	walk = func(t grove.Trace) {
		for _, s := range t.Spans {
			if name, ok := spanPhases[s.Phase]; ok {
				sums[name] += s.Duration()
			}
		}
		for _, c := range t.Children {
			walk(c)
		}
	}
	for _, t := range traces {
		walk(t)
	}
	if len(traces) > 0 {
		for name, d := range sums {
			out.layers[name] = float64(d.Nanoseconds()) / 1e3 / float64(len(traces))
		}
	}
	out.traces = traces

	after := snapshotCounters(st)
	perQuery := func(n int64) float64 { return float64(n) / float64(r.queries) }
	ratio := func(a, b int64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}
	io := func(get func(grove.IOStats) int64) float64 { return perQuery(get(after.io) - get(before.io)) }
	out.layers["colstore.bitmaps_fetched"] = io(func(s grove.IOStats) int64 { return int64(s.BitmapColumnsFetched) })
	out.layers["colstore.bytes_read"] = io(func(s grove.IOStats) int64 { return s.BytesRead })
	out.layers["colstore.records_returned"] = io(func(s grove.IOStats) int64 { return s.RecordsReturned })
	out.layers["colstore.measures_scanned"] = io(func(s grove.IOStats) int64 { return s.MeasuresScanned })
	out.layers["query.cache_hit_ratio"] = ratio(after.cache.Hits-before.cache.Hits, after.cache.Misses-before.cache.Misses)
	out.layers["view.rewrite_ratio"] = perQuery(after.views - before.views)
	out.layers["colstore.zone_skip_ratio"] = ratio(r.blocksSkipped, r.blocksScanned)
	if after.storage.LogicalBytes > 0 {
		out.layers["colstore.disk_bytes_per_logical_byte"] = float64(after.storage.OnDiskBytes) / float64(after.storage.LogicalBytes)
	}
	p0, p1 := before.storage.Pool, after.storage.Pool
	out.layers["pagepool.hit_ratio"] = ratio(p1.Hits-p0.Hits, p1.Misses-p0.Misses)
	out.layers["pagepool.evictions"] = perQuery(p1.Evictions - p0.Evictions)
	out.layers["pagepool.resident_bytes"] = float64(p1.ResidentBytes)
	out.layers["obs.trace_overhead_ratio"] = overhead
	out.notes = append(out.notes, fmt.Sprintf("per-layer spans from %d traced queries; counters over %d queries", len(traces), r.queries))
}

// ingestSample is how many supply records the ingest-path layers are timed
// on, each module called directly: the library has no ingest spans.
const ingestSample = 3000

// ingestPreload is how many base records the standalone relations hold
// before the timed loads, so columns already exist as they do in the store.
const ingestPreload = 2000

// ingestLayers times the ingest path module by module on standalone
// structures: no reader, no store lock, no log unless the log is measured.
func ingestLayers(out *outcome, cfg config, co *corpus, train []*grove.Graph) error {
	n := ingestSample
	sample := func(i int) int { return ingestBase + i }

	var cycle, sortT time.Duration
	cyclic := 0
	for i := 0; i < n; i++ {
		rec := co.record(sample(i))
		start := time.Now()
		c := rec.HasCycle()
		cycle += time.Since(start)
		if c {
			cyclic++
		}
		start = time.Now()
		_ = rec.Elements()
		sortT += time.Since(start)
	}
	perRec := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(n) }
	out.layers["graph.cycle_check_us"] = perRec(cycle)
	out.layers["graph.cyclic_share"] = float64(cyclic) / float64(n)
	out.layers["graph.elements_sort_us"] = perRec(sortT)

	// LoadRecord into a standalone relation, without and with the
	// workload's graph views; the difference is view maintenance.
	load := func(withViews bool) (time.Duration, error) {
		rel, reg := colstore.NewRelation(0), graph.NewRegistry()
		for i := 0; i < ingestPreload; i++ {
			graph.LoadRecord(rel, reg, co.record(i))
		}
		if withViews {
			if _, err := view.NewAdvisor(rel, reg).MaterializeGraphViews(train, ingestViews); err != nil {
				return 0, err
			}
		}
		var total time.Duration
		for i := 0; i < n; i++ {
			rec := co.record(sample(i))
			start := time.Now()
			graph.LoadRecord(rel, reg, rec)
			total += time.Since(start)
		}
		return total, nil
	}
	plain, err := load(false)
	if err != nil {
		return err
	}
	viewed, err := load(true)
	if err != nil {
		return err
	}
	out.layers["graph.load_record_us"] = perRec(plain)
	out.layers["view.maintain_us"] = perRec(viewed - plain)

	// A standalone log with the store's policy and op encoding.
	dir, err := cfg.scratch("wal")
	if err != nil {
		return err
	}
	log, err := wal.Create(fsio.OS(), filepath.Join(dir, "wal.log"), 0, "gen-000001", 1, wal.Config{Policy: wal.SyncInterval})
	if err != nil {
		return err
	}
	var appendT, commitT time.Duration
	for i := 0; i < n; i++ {
		op := wal.Op{Kind: wal.OpAddRecord, Record: co.record(sample(i))}
		start := time.Now()
		lsn, err := log.Append(op)
		appendT += time.Since(start)
		if err != nil {
			log.Close()
			return fmt.Errorf("standalone wal append: %w", err)
		}
		start = time.Now()
		err = log.Commit(lsn)
		commitT += time.Since(start)
		if err != nil {
			log.Close()
			return fmt.Errorf("standalone wal commit: %w", err)
		}
	}
	if err := log.Close(); err != nil {
		return err
	}
	out.layers["wal.append_us"] = perRec(appendT)
	out.layers["wal.commit_us"] = perRec(commitT)
	return nil
}
