package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"grove"
)

// Sizes. Each run sets up a warm-up store and then setupReplicas measured
// ones, one after another, reports the median set-up time of the measured
// ones, and runs the op mix against the last.
const (
	setupReplicas = 3

	nyRecords = 20000
	nyPool    = 10000 // distinct queries per single-op kind: none repeats in a run
	nyBatch   = 2000  // distinct batch members

	gnuRecords   = 15000
	gnuShards    = 2
	gnuPool      = 2000 // distinct queries per kind, drawn Zipf-skewed
	gnuTrain     = 100  // Zipf-drawn training queries per view kind
	gnuViews     = 8    // views per view kind the advisor may materialise
	gnuCache     = 512  // result-cache entries, well below the distinct queries
	gnuPoolShare = 10   // buffer-pool budget, % of the logical column bytes

	ingestBase = 10000
	// The writer stops when its supply runs out. Recovery decodes the whole
	// log into memory, so the supply also bounds the memory recovery takes.
	ingestSupply = 15000
	ingestPool   = 1000
	ingestViews  = 8
	ingestProbes = 200 // queries checked on the recovered store

	traceRing = 4096 // traces kept per traced slice
)

// ingestSeedSalt gives ingest-mixed a different NY collection than ny-read
// under the same seed.
const ingestSeedSalt = 0x5eed

// replicaClock times one replica's set-up: the time spent inside store
// calls to reach a ready store. Building records on the benchmark side is
// off the clock.
type replicaClock struct {
	total, appends time.Duration
	records        int
	lat            samples
}

func (c *replicaClock) time(f func() error) error {
	start := time.Now()
	err := f()
	c.total += time.Since(start)
	return err
}

// ingest appends records [from, to) of the corpus.
func (c *replicaClock) ingest(st *grove.Store, co *corpus, from, to int) error {
	for i := from; i < to; i++ {
		rec := co.record(i)
		start := time.Now()
		_, err := st.Append(rec)
		d := time.Since(start)
		if err != nil {
			return fmt.Errorf("append record %d: %w", i, err)
		}
		c.total += d
		c.appends += d
		c.lat.add(d)
	}
	c.records += to - from
	return nil
}

// buildReplicas sets up a warm-up replica and then setupReplicas measured
// ones, one after another, and keeps only the last. The warm-up replica
// takes the process's first heap growth off the measured ones; inspect, if
// set, sees it before it is closed.
func buildReplicas(build func(c *replicaClock) (*grove.Store, error), inspect func(*grove.Store) error) (*grove.Store, []*replicaClock, error) {
	clocks := make([]*replicaClock, setupReplicas+1)
	for r := range clocks {
		clocks[r] = &replicaClock{}
		st, err := build(clocks[r])
		if err != nil {
			return nil, nil, fmt.Errorf("set up replica %d: %w", r, err)
		}
		if r == setupReplicas {
			return st, clocks[1:], nil
		}
		if r == 0 && inspect != nil {
			if err := inspect(st); err != nil {
				return nil, nil, err
			}
		}
		if err := st.Close(); err != nil {
			return nil, nil, err
		}
	}
	panic("unreachable")
}

// setupMetrics reports the median measured replica's set-up time and, when
// soloIngest, the append metrics of its reader-free ingest.
func setupMetrics(out *outcome, clocks []*replicaClock, soloIngest bool) error {
	var secs, rates []float64
	var lat samples
	for _, c := range clocks {
		secs = append(secs, c.total.Seconds())
		rates = append(rates, float64(c.records)/c.appends.Seconds())
		lat.ms = append(lat.ms, c.lat.ms...)
	}
	out.e2e["setup_s"] = median(secs)
	if !soloIngest {
		return nil
	}
	out.e2e["ingest_rec_per_s"] = median(rates)
	return appendMetrics(out, &lat)
}

func appendMetrics(out *outcome, s *samples) error {
	out.ops["append"] = s.summarize()
	p50, err := s.quantile(0.5)
	if err != nil {
		return fmt.Errorf("append: %w", err)
	}
	p99, err := s.quantile(0.99)
	if err != nil {
		return fmt.Errorf("append: %w", err)
	}
	out.e2e["append_p50_ms"], out.e2e["append_p99_ms"] = p50, p99
	return nil
}

// timedReads runs the reader for the run's length. A traced run alternates
// four slices, untraced and traced, keeps each traced slice's traces, and
// reports traced ÷ untraced throughput: the cost of measuring.
func timedReads(r *reader, cfg config) (traces []grove.Trace, overhead float64) {
	total := cfg.duration()
	if !cfg.trace {
		r.runUntil(time.Now().Add(total))
		return nil, 0
	}
	var on, off slice
	for s := 0; s < 4; s++ {
		traced := s%2 == 1
		if traced {
			r.st.EnableTracing(traceRing)
		}
		a := r.mark()
		r.runUntil(time.Now().Add(total / 4))
		b := r.mark()
		sum := &off
		if traced {
			traces = append(traces, r.st.RecentTraces()...)
			r.st.DisableTracing()
			sum = &on
		}
		sum.ops += b.ops - a.ops
		sum.busy += b.busy - a.busy
	}
	return traces, on.rate() / off.rate()
}

// readMetrics reports the reader's throughput and per-kind latencies.
func readMetrics(out *outcome, r *reader) error {
	out.attempted += r.ops
	out.failed += r.failed
	out.errs = append(out.errs, r.errs...)
	// Closed-loop throughput over the time spent inside store calls: the
	// client's own query building and checking are off the clock.
	out.e2e["read_ops_per_s"] = r.mark().rate()
	for k := opKind(0); k < numKinds; k++ {
		out.ops[kindNames[k]] = r.lat[k].summarize()
	}
	for _, m := range []struct {
		name string
		k    opKind
		q    float64
	}{
		{"match_p50_ms", opMatch, 0.5}, {"match_p99_ms", opMatch, 0.99},
		{"expr_p50_ms", opExpr, 0.5},
		{"pathagg_p50_ms", opPathAgg, 0.5}, {"pathagg_p99_ms", opPathAgg, 0.99},
		{"scalar_p50_ms", opScalar, 0.5}, {"scalar_p99_ms", opScalar, 0.99},
		{"batch_p50_ms", opBatch, 0.5}, {"batch_p90_ms", opBatch, 0.9},
	} {
		v, err := r.lat[m.k].quantile(m.q)
		if err != nil {
			return fmt.Errorf("%s: %w (lengthen the run)", m.name, err)
		}
		out.e2e[m.name] = v
	}
	return nil
}

// runNYRead: NY road-like collection, in memory, one shard, no views, no
// result cache; one closed-loop client over the op mix with queries that
// never repeat. The engine kernels do all the work.
func runNYRead(cfg config) (*outcome, error) {
	co, err := newCorpus(false, nyRecords, cfg.seed)
	if err != nil {
		return nil, err
	}
	q := newQuerySet(co, nyPool, nyBatch, true)
	out := newOutcome()

	var refs *exactRefs
	st, clocks, err := buildReplicas(func(c *replicaClock) (*grove.Store, error) {
		st := grove.Open()
		if err := c.ingest(st, co, 0, len(co.records)); err != nil {
			return nil, err
		}
		return st, c.time(func() error { st.Optimize(); return nil })
	}, func(warm *grove.Store) (err error) {
		// Every replica has the reference configuration; the warm-up one,
		// quiescent, answers the reference queries.
		refs, err = newExactRefs(warm, q)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := setupMetrics(out, clocks, true); err != nil {
		return nil, err
	}

	pick := &sequential{q: q}
	r := &reader{st: st, q: q, pick: pick, ver: refs, workers: 2}
	before := snapshotCounters(st)
	runtime.GC()
	traces, overhead := timedReads(r, cfg)
	if pick.wraps > 0 {
		out.notes = append(out.notes, fmt.Sprintf("query pools wrapped %d times: raise nyPool", pick.wraps))
	}
	if err := readMetrics(out, r); err != nil {
		return nil, err
	}
	if cfg.trace {
		queryLayers(out, st, r, traces, before, overhead)
	}
	return out, st.Close()
}

// runGNUPaged: GNU power-law collection on two shards with advisor-chosen
// graph and aggregate views, saved and reloaded as paged columns under a
// buffer pool smaller than the working set, result cache on, Zipf-skewed
// queries.
func runGNUPaged(cfg config) (*outcome, error) {
	co, err := newCorpus(true, gnuRecords, cfg.seed)
	if err != nil {
		return nil, err
	}
	q := newQuerySet(co, gnuPool, gnuPool, true)
	train := newZipf(q, cfg.seed+1)
	draw := func(k opKind, pool []compactGraph) []*grove.Graph {
		out := make([]*grove.Graph, gnuTrain)
		for i := range out {
			out[i] = q.graph(pool[train.next(k)])
		}
		return out
	}
	trainMatch, trainPath, trainScalar := draw(opMatch, q.match), draw(opPathAgg, q.pathagg), draw(opScalar, q.scalar)
	// View selection depends only on the training queries, so every store
	// below gets the same views.
	materialize := func(st *grove.Store) ([]string, error) {
		opts := grove.AdvisorOptions{}
		graphViews, err := st.MaterializeGraphViews(trainMatch, gnuViews, opts)
		if err != nil {
			return nil, err
		}
		sumViews, err := st.MaterializeAggViews(trainPath, grove.Sum, gnuViews, opts)
		if err != nil {
			return nil, err
		}
		minViews, err := st.MaterializeAggViews(trainScalar, grove.Min, gnuViews, opts)
		if err != nil {
			return nil, err
		}
		return append(append(graphViews, sumViews...), minViews...), nil
	}
	out := newOutcome()

	// Two quiescent in-memory, single-shard references without a cache: one
	// without views, one with the workload's views.
	ref := grove.Open()
	if err := new(replicaClock).ingest(ref, co, 0, len(co.records)); err != nil {
		return nil, err
	}
	plain, err := newExactRefs(ref, q)
	if err != nil {
		return nil, err
	}
	ref.Optimize()
	refViews, err := materialize(ref)
	if err != nil {
		return nil, err
	}
	refs, err := newViewRefs(plain, ref, q)
	if err != nil {
		return nil, err
	}
	if err := ref.Close(); err != nil {
		return nil, err
	}

	st, clocks, err := buildReplicas(func(c *replicaClock) (*grove.Store, error) {
		b := grove.NewSharded(gnuShards)
		if err := c.ingest(b, co, 0, len(co.records)); err != nil {
			return nil, err
		}
		dir, err := cfg.scratch("store")
		if err != nil {
			return nil, err
		}
		var st *grove.Store
		var views []string
		err = c.time(func() error {
			b.Optimize()
			if views, err = materialize(b); err != nil {
				return err
			}
			if err := b.Save(dir); err != nil {
				return err
			}
			if err := b.Close(); err != nil {
				return err
			}
			if st, err = grove.LoadStore(dir); err != nil {
				return err
			}
			st.SetPageCacheBytes(st.StorageStats().LogicalBytes * gnuPoolShare / 100)
			st.EnableResultCache(true, gnuCache)
			return nil
		})
		if err == nil && !slices.Equal(views, refViews) {
			err = fmt.Errorf("views %v, the reference's %v", views, refViews)
		}
		return st, err
	}, nil)
	if err != nil {
		return nil, err
	}
	if err := setupMetrics(out, clocks, true); err != nil {
		return nil, err
	}

	r := &reader{st: st, q: q, pick: newZipf(q, cfg.seed+2), ver: refs, workers: 2}
	before := snapshotCounters(st)
	runtime.GC()
	traces, overhead := timedReads(r, cfg)
	if err := readMetrics(out, r); err != nil {
		return nil, err
	}
	out.notes = append(out.notes, fmt.Sprintf("%d of %d SUM answers differ in their bits from the view-free reference's, within %g",
		refs.reassociated, len(r.lat[opPathAgg].ms), sumTolerance))
	if cfg.trace {
		queryLayers(out, st, r, traces, before, overhead)
	}
	return out, st.Close()
}

// runIngestMixed: a different NY collection on one shard with graph views
// and a write-ahead log at interval fsync. After the base records load, one
// writer appends closed-loop while one reader issues the op mix against the
// growing store; then the store is abandoned without a checkpoint and
// recovered. Its expressions are intersections only: an intersection can
// hold a half-appended record only if the whole record matches too, so a
// reader that sees part of an append passes the whole-record-prefix check
// here. ingest-torn keeps the differences that expose such reads.
func runIngestMixed(cfg config) (*outcome, error) { return runIngest(cfg, false) }

// runIngestTorn is ingest-mixed with every other expression an AndNot. A
// record whose append has set the intersected edges but not yet the
// subtracted one matches the difference although the whole record does not:
// the torn read the prefix check exists to catch. Readers in grove do not
// yet see appends atomically, so this workload fails a few reads per run.
func runIngestTorn(cfg config) (*outcome, error) { return runIngest(cfg, true) }

func runIngest(cfg config, andNot bool) (*outcome, error) {
	seed := cfg.seed ^ ingestSeedSalt
	co, err := newCorpus(false, ingestBase+ingestSupply, seed)
	if err != nil {
		return nil, err
	}
	q := newQuerySet(co, ingestPool, ingestPool, andNot)
	train := make([]*grove.Graph, ingestPool/5)
	for i := range train {
		train[i] = q.graph(q.match[i])
	}
	out := newOutcome()

	ref := grove.Open()
	if err := new(replicaClock).ingest(ref, co, 0, len(co.records)); err != nil {
		return nil, err
	}
	refs, err := newPrefixRefs(ref, q)
	if err != nil {
		return nil, err
	}
	if err := ref.Close(); err != nil {
		return nil, err
	}

	var dir string
	st, clocks, err := buildReplicas(func(c *replicaClock) (*grove.Store, error) {
		st := grove.Open()
		if err := c.ingest(st, co, 0, ingestBase); err != nil {
			return nil, err
		}
		var err error
		if dir, err = cfg.scratch("store"); err != nil {
			return nil, err
		}
		return st, c.time(func() error {
			st.Optimize()
			if _, err := st.MaterializeGraphViews(train, ingestViews, grove.AdvisorOptions{}); err != nil {
				return err
			}
			return st.EnableWAL(dir, grove.WALConfig{Policy: grove.SyncInterval})
		})
	}, nil)
	if err != nil {
		return nil, err
	}
	if err := setupMetrics(out, clocks, false); err != nil {
		return nil, err
	}

	// started counts appends begun and acked appends returned, both as
	// record counts: a reader that saw acked = lo before its query and
	// started = hi after it must see a whole-record prefix of length in
	// [lo, hi].
	var started, acked atomic.Uint32
	started.Store(ingestBase)
	acked.Store(ingestBase)
	// The writer holds one of the two client cores, so batches get one worker.
	r := &reader{st: st, q: q, pick: &uniform{q: q, rng: rand.New(rand.NewSource(seed + 2))}, ver: refs, workers: 1,
		lo: func() uint32 { return acked.Load() }, hi: func() uint32 { return started.Load() }}
	w := &writer{st: st, co: co, started: &started, acked: &acked}

	before := snapshotCounters(st)
	runtime.GC()
	deadline := time.Now().Add(cfg.duration())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.runUntil(deadline)
	}()
	traces, overhead := timedReads(r, cfg)
	wg.Wait()

	if err := readMetrics(out, r); err != nil {
		return nil, err
	}
	out.attempted += w.n
	out.failed += w.failed
	out.errs = append(out.errs, w.errs...)
	out.e2e["ingest_rec_per_s"] = float64(w.n) / w.busy.Seconds()
	if err := appendMetrics(out, &w.lat); err != nil {
		return nil, err
	}
	if w.n == ingestSupply {
		out.notes = append(out.notes, fmt.Sprintf("the writer used up its %d-record supply before the run ended", ingestSupply))
	}
	if err := st.SyncWAL(); err != nil {
		return nil, fmt.Errorf("sync wal: %w", err)
	}
	walStats := st.WALStats()
	if cfg.trace {
		queryLayers(out, st, r, traces, before, overhead)
		if walStats.Appends > 0 {
			out.layers["wal.bytes_per_record"] = float64(walStats.AppendedBytes) / float64(walStats.Appends)
		}
		if walStats.Fsyncs > 0 {
			out.layers["wal.records_per_fsync"] = float64(walStats.Appends) / float64(walStats.Fsyncs)
		}
	}
	// Abandon the store without a checkpoint: the directory now holds what
	// a crash after the last acknowledged fsync leaves.
	if err := st.Close(); err != nil {
		return nil, err
	}

	start := time.Now()
	rec, err := grove.LoadStore(dir)
	recover := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	out.e2e["recover_s"] = recover.Seconds()
	verifyRecovery(out, rec, q, refs, uint32(ingestBase+w.n))
	if cfg.trace {
		out.layers["wal.replay_ops_per_s"] = float64(rec.WALStats().ReplayedOps) / recover.Seconds()
	}
	if err := rec.Close(); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := ingestLayers(out, cfg, co, train); err != nil {
			return nil, err
		}
	}
	return out, os.RemoveAll(dir)
}

// writer is the ingest workload's closed-loop appender.
type writer struct {
	st             *grove.Store
	co             *corpus
	started, acked *atomic.Uint32
	n              int
	lat            samples
	busy           time.Duration
	failed         int
	errs           []string
}

func (w *writer) runUntil(deadline time.Time) {
	for w.n < ingestSupply && time.Now().Before(deadline) {
		id := uint32(ingestBase + w.n)
		rec := w.co.record(int(id))
		w.started.Store(id + 1)
		start := time.Now()
		got, err := w.st.Append(rec)
		d := time.Since(start)
		w.acked.Store(id + 1)
		w.lat.add(d)
		w.busy += d
		w.n++
		if err == nil && got != id {
			err = fmt.Errorf("got record id %d, want %d", got, id)
		}
		if err != nil {
			w.failed++
			if len(w.errs) < 5 {
				w.errs = append(w.errs, fmt.Sprintf("append %d: %v", id, err))
			}
		}
	}
}

// verifyRecovery checks the recovered store: exactly the acknowledged
// records, no latched log error, and probe answers equal to the reference
// over that many records.
func verifyRecovery(out *outcome, rec *grove.Store, q *querySet, refs *prefixRefs, want uint32) {
	fail := func(msg string) {
		out.failed++
		if len(out.errs) < 10 {
			out.errs = append(out.errs, "recovery: "+msg)
		}
	}
	out.attempted += 2
	if got := rec.NumRecords(); got != int(want) {
		fail(fmt.Sprintf("holds %d records, %d acknowledged", got, want))
	}
	if err := rec.WALError(); err != nil {
		fail(fmt.Sprintf("wal error: %v", err))
	}
	for i := 0; i < ingestProbes; i++ {
		var err error
		if i%2 == 0 {
			var res *grove.Result
			if res, err = rec.Match(q.graph(q.match[i])); err == nil {
				err = checkPrefix(res.Answer, refs.matchAns[i], want, want)
			}
		} else {
			var b *grove.Bitmap
			if b, err = rec.Eval(q.exprAt(i)); err == nil {
				err = checkPrefix(b, refs.exprAns[i], want, want)
			}
		}
		out.attempted++
		if err != nil {
			fail(fmt.Sprintf("probe %d: %v", i, err))
		}
	}
}
