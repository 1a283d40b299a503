// Package live is a real parallel aggregation engine: the same algorithms
// as internal/core, executed with actual goroutines and channels on the
// host machine instead of on the simulated cluster. Workers play the role
// of nodes, channel exchanges the role of the interconnect, and a bounded
// hash table the role of the memory budget; overflow "spills" are buffered
// in memory (a real system would spool them to disk).
//
// The engine exists for two reasons. First, it is the artifact a user of
// this library most likely wants: a fast multicore GROUP BY. Second, it
// demonstrates the paper's central claim outside the simulator — the
// adaptive algorithms' per-worker switching works with real concurrency,
// real channel backpressure and real memory pressure, with no global
// synchronization.
//
// Each worker runs two goroutines, mirroring the Gamma operator split: a
// scan side that aggregates or routes its partition, and a merge side that
// owns the groups hashing to the worker and consumes the exchange from the
// moment the query starts (so bounded exchange channels provide
// backpressure without deadlock).
//
// The engine has one data plane, and it is allocation-free in steady
// state: worker tables are internal/aggtable open-addressing tables folded
// a columnar chunk at a time (UpdateBatch/MergeBatch), and exchange
// messages are columnar batches recycled through process-wide sync.Pools
// — the merge side returns each batch to the pool after folding it, so
// after warm-up the scan sides append into recycled buffers instead of
// allocating, within a run and across runs.
package live

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"parallelagg/internal/aggtable"
	"parallelagg/internal/obs"
	"parallelagg/internal/trace"
	"parallelagg/internal/tuple"
)

// Algorithm selects the parallel strategy. The disk-centric members of the
// paper's lineup (C-2P's coordinator and the Sampling front-end) are
// omitted: with the relation already in memory, sampling saves nothing and
// a centralized merge is strictly worse than the parallel one.
type Algorithm int

const (
	// TwoPhase: each worker aggregates its partition locally, then the
	// partials are hash-partitioned and merged in parallel.
	TwoPhase Algorithm = iota
	// Repartitioning: raw tuples are hash-partitioned first; each worker
	// aggregates only the groups it owns.
	Repartitioning
	// AdaptiveTwoPhase: start as TwoPhase; a worker whose local table
	// fills flushes its partials and repartitions the rest raw.
	AdaptiveTwoPhase
	// AdaptiveRepartitioning: start as Repartitioning; a worker that sees
	// too few distinct groups in its first InitSeg tuples raises a shared
	// flag and every worker falls back to the AdaptiveTwoPhase strategy.
	AdaptiveRepartitioning
	// Shared: every worker folds its partition directly into ONE striped
	// concurrent table (internal/aggtable.Shared); there is no exchange,
	// and the merge phase is a single drain. This is the 2025 counterpoint
	// to the paper's partitioned designs ("Global Hash Tables Strike
	// Back!"): no second phase, no partial traffic, at the price of lock
	// traffic on hot stripes. The TableEntries budget is global —
	// TableEntries×Workers entries, the same total memory as the
	// partitioned algorithms.
	Shared
	// AdaptiveShared: start as Shared; a worker that sees the shared
	// table refuse a tuple (bound pressure) or more than SwitchRatio of
	// its last InitSeg folds contend on a stripe lock raises a flag and
	// every worker falls back to the AdaptiveTwoPhase strategy for the
	// rest of its partition. The pre-switch shared contents are drained
	// once at the end and merged with the exchanged results.
	AdaptiveShared
)

// String returns the paper's abbreviation.
func (a Algorithm) String() string {
	switch a {
	case TwoPhase:
		return "2P"
	case Repartitioning:
		return "Rep"
	case AdaptiveTwoPhase:
		return "A-2P"
	case AdaptiveRepartitioning:
		return "A-Rep"
	case Shared:
		return "Shared"
	case AdaptiveShared:
		return "A-Shared"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Algorithms lists the implemented strategies.
func Algorithms() []Algorithm {
	return []Algorithm{TwoPhase, Repartitioning, AdaptiveTwoPhase, AdaptiveRepartitioning, Shared, AdaptiveShared}
}

// Config tunes the engine. The zero value is usable: GOMAXPROCS workers,
// unbounded tables (no adaptive behaviour), 4096-tuple batches.
type Config struct {
	// Workers is the number of parallel workers (paper: nodes). Default:
	// runtime.GOMAXPROCS(0).
	Workers int

	// TableEntries bounds each worker's local hash table, triggering the
	// overflow behaviour of the chosen algorithm (spill passes for
	// TwoPhase, the switch for AdaptiveTwoPhase). 0 means unbounded.
	TableEntries int

	// Batch is the number of tuples or partials per exchanged message.
	// Default 4096.
	Batch int

	// InitSeg and SwitchRatio drive AdaptiveRepartitioning's fallback,
	// with the same meaning as core.Options. Defaults: 4096 and 0.1.
	// AdaptiveShared reuses them as its contention window: a worker that
	// sees more than SwitchRatio×InitSeg contended folds among InitSeg
	// consecutive shared-table updates falls back to two-phase.
	InitSeg     int
	SwitchRatio float64

	// SharedStripes is the stripe count of the Shared/AdaptiveShared
	// concurrent table (rounded up to a power of two; 0 picks the
	// aggtable default). More stripes mean fewer lock collisions and a
	// bigger drained-table footprint.
	SharedStripes int

	// SpillToDisk spools TwoPhase overflow to real temporary files instead
	// of an in-memory buffer, making the TableEntries bound a true memory
	// bound. SpillDir selects the directory ("" = the OS temp dir).
	SpillToDisk bool
	SpillDir    string

	// Obs, when non-nil, receives per-worker counters (rows, routed
	// tuples, partials, spills, groups, merge fan-in) and whole-run
	// throughput after the aggregation completes.
	Obs *obs.Registry

	// Tracer, when non-nil, records a scan and a merge span per worker.
	Tracer *trace.Tracer
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Batch <= 0 {
		c.Batch = 4096
	}
	if c.InitSeg <= 0 {
		c.InitSeg = 4096
	}
	if c.SwitchRatio <= 0 {
		c.SwitchRatio = 0.1
	}
	return c
}

// WorkerMetrics records one worker's activity.
type WorkerMetrics struct {
	Scanned      int64 // tuples this worker's scan side processed
	Routed       int64 // raw tuples shipped to other workers
	PartialsSent int64 // partial aggregates shipped
	Spilled      int64 // tuples that left the bounded table (memory or disk)
	GroupsOut    int64 // result groups this worker's merge side produced
	FanIn        int64 // distinct scan sides that fed this worker's merge side
	TableOcc     int64 // high-water table occupancy, permille (obs hook)
	Switched     bool  // the adaptive switch fired
}

// Result is the outcome of one parallel aggregation.
type Result struct {
	Groups    map[tuple.Key]tuple.AggState
	Switched  int // workers that changed strategy mid-run
	PerWorker []WorkerMetrics
}

// colRawBatch and colPartBatch are the pooled columnar exchange buffers:
// raw tuples routed to their owner, and drained partials. The holder
// structs travel through the channels by pointer so the merge side can
// hand the same allocation back to the pool after folding it.
type colRawBatch struct{ b tuple.Batch }
type colPartBatch struct{ pb tuple.PartialBatch }

// exchangePools recycles the exchange batches of one batch size. The
// pools are process-wide, one set per batch size (poolsFor), so every
// pooled buffer has exactly cfg.Batch capacity and a run's fixed cost
// does not grow with cfg.Batch: a run reuses what earlier runs with the
// same batch size returned instead of allocating its own. sync.Pool
// still releases buffers that stay idle across two GC cycles.
type exchangePools struct {
	colRaw  sync.Pool
	colPart sync.Pool
}

// poolSet holds the process-wide exchange pools, keyed by batch size.
type poolSet struct {
	mu sync.Mutex
	//aggvet:guard mu
	byBatch map[int]*exchangePools
}

var exchangePoolSet = poolSet{byBatch: map[int]*exchangePools{}}

// poolsFor returns the exchange pools for batch, creating them on first
// use.
func poolsFor(batch int) *exchangePools {
	s := &exchangePoolSet
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.byBatch[batch]
	if p == nil {
		p = newExchangePools(batch)
		s.byBatch[batch] = p
	}
	return p
}

func newExchangePools(batch int) *exchangePools {
	return &exchangePools{
		colRaw: sync.Pool{New: func() any {
			return &colRawBatch{b: tuple.Batch{
				Keys: make([]tuple.Key, 0, batch),
				Vals: make([]int64, 0, batch),
			}}
		}},
		colPart: sync.Pool{New: func() any {
			return &colPartBatch{pb: tuple.PartialBatch{
				Keys:   make([]tuple.Key, 0, batch),
				Counts: make([]int64, 0, batch),
				Sums:   make([]int64, 0, batch),
				SumSqs: make([]int64, 0, batch),
				Mins:   make([]int64, 0, batch),
				Maxs:   make([]int64, 0, batch),
			}}
		}},
	}
}

func (p *exchangePools) getColRaw() *colRawBatch {
	b := p.colRaw.Get().(*colRawBatch)
	b.b.Reset()
	return b
}

func (p *exchangePools) getColPart() *colPartBatch {
	b := p.colPart.Get().(*colPartBatch)
	b.pb.Reset()
	return b
}

// message is one exchange batch between workers. Exactly one of
// craw/cpart is non-nil; the receiver owns the batch and must return it
// to the pool once folded.
type message struct {
	src   int // sending worker, for merge fan-in accounting
	craw  *colRawBatch
	cpart *colPartBatch
}

// Aggregate runs alg over the tuples with cfg.Workers parallel workers and
// returns the merged groups. The input slice is read-only; it is sliced
// into one contiguous partition per worker.
func Aggregate(cfg Config, tuples []tuple.Tuple, alg Algorithm) (*Result, error) {
	cfg = cfg.withDefaults()
	return AggregatePartitioned(cfg, partition(tuples, cfg.Workers), alg)
}

// AggregatePartitioned is Aggregate with caller-controlled placement: one
// input slice per worker (len(parts) overrides cfg.Workers). Use it to
// reproduce the paper's skew scenarios on the live engine.
func AggregatePartitioned(cfg Config, parts [][]tuple.Tuple, alg Algorithm) (*Result, error) {
	cfg = cfg.withDefaults()
	w := len(parts)
	if w == 0 {
		return &Result{Groups: map[tuple.Key]tuple.AggState{}}, nil
	}
	cfg.Workers = w
	switch alg {
	case TwoPhase, Repartitioning, AdaptiveTwoPhase, AdaptiveRepartitioning, Shared, AdaptiveShared:
	default:
		return nil, fmt.Errorf("live: unknown algorithm %v", alg)
	}

	// The shared algorithms fold into one concurrent table. Its bound is
	// the global equivalent of the per-worker budget: TableEntries
	// entries per worker, pooled.
	var shared *aggtable.Shared
	if alg == Shared || alg == AdaptiveShared {
		bound := 0
		if cfg.TableEntries > 0 {
			bound = cfg.TableEntries * w
		}
		shared = aggtable.NewShared(bound, cfg.SharedStripes)
	}

	// Inbox capacity 2*w: every scan side can have one in-flight batch
	// per destination (w total across all inboxes) plus one more being
	// built, while the merge sides drain from the moment the query
	// starts. A scan side blocked on a full inbox therefore always has a
	// running consumer on the other end — its own merge side never stops
	// consuming — so the A-2P mass re-route after a switch cannot
	// deadlock; see TestBackpressureCannotDeadlockA2P.
	inboxes := make([]chan message, w)
	for i := range inboxes {
		inboxes[i] = make(chan message, 2*w)
	}
	pools := poolsFor(cfg.Batch)
	var scanners sync.WaitGroup
	scanners.Add(w)
	go func() {
		// Once every scan side is done, no more exchange traffic can
		// appear: let the merge sides drain and finish.
		scanners.Wait()
		for _, ch := range inboxes {
			close(ch)
		}
	}()

	results := make([][]tuple.Partial, w)
	metrics := make([]WorkerMetrics, w)
	switched := make([]bool, w)
	errs := make([]error, w)
	var fallback atomic.Bool // ARep's broadcast "end-of-phase" flag

	start := time.Now()
	var all sync.WaitGroup
	workers := make([]*worker, w)
	for i := 0; i < w; i++ {
		i := i
		wk := &worker{id: i, cfg: cfg, alg: alg, inboxes: inboxes,
			fallback: &fallback, m: &metrics[i], pools: pools, shared: shared}
		workers[i] = wk
		all.Add(2)
		go func() {
			defer all.Done()
			defer scanners.Done()
			span := cfg.Tracer.Begin(i, "scan")
			switched[i], errs[i] = wk.scanSide(parts[i])
			span.End(fmt.Sprintf("%d tuples, switched=%v", len(parts[i]), switched[i]))
		}()
		go func() {
			defer all.Done()
			span := cfg.Tracer.Begin(i, "merge")
			results[i] = wk.mergeSide(inboxes[i])
			metrics[i].GroupsOut = int64(len(results[i]))
			span.End(fmt.Sprintf("%d groups, fan-in %d", len(results[i]), metrics[i].FanIn))
		}()
	}
	all.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Size the result for every source that lands in it: under Shared the
	// exchanged results are empty and the groups sit in the shared table
	// and the overflow tables.
	total := 0
	for _, r := range results {
		total += len(r)
	}
	if shared != nil {
		total += shared.Len()
		for _, wk := range workers {
			if wk.sharedOv != nil {
				total += wk.sharedOv.Len()
			}
		}
	}
	merged := make(map[tuple.Key]tuple.AggState, total)
	for wi, r := range results {
		for _, pt := range r {
			// One probe per group: a key that is already present leaves
			// the map's size unchanged.
			n := len(merged)
			merged[pt.Key] = pt.State
			if len(merged) == n {
				return nil, fmt.Errorf("live: group %d produced by two workers (second: %d)", pt.Key, wi)
			}
		}
	}
	if shared != nil {
		// The merge phase of the shared algorithms: one drain. Keys can
		// legitimately coexist with exchanged results (A-Shared groups
		// split across the pre- and post-switch phases) and with the
		// per-worker overflow tables plain Shared falls back to at its
		// bound, so these fold with Merge instead of the duplicate check.
		buf := shared.AppendDrain(nil)
		for _, pt := range buf {
			mergeGroup(merged, pt)
		}
		for _, wk := range workers {
			if wk.sharedOv != nil {
				buf = wk.sharedOv.AppendDrain(buf[:0])
				for _, pt := range buf {
					mergeGroup(merged, pt)
				}
			}
		}
	}
	res := &Result{Groups: merged, PerWorker: metrics}
	for i, sw := range switched {
		if sw {
			res.Switched++
			res.PerWorker[i].Switched = true
		}
	}
	publishObs(cfg.Obs, metrics, elapsed)
	return res, nil
}

// mergeGroup folds one partial into the final result map.
func mergeGroup(m map[tuple.Key]tuple.AggState, pt tuple.Partial) {
	if s, ok := m[pt.Key]; ok {
		s.Merge(pt.State)
		m[pt.Key] = s
		return
	}
	m[pt.Key] = pt.State
}

// partition slices tuples into w near-equal contiguous parts.
func partition(tuples []tuple.Tuple, w int) [][]tuple.Tuple {
	parts := make([][]tuple.Tuple, w)
	per := len(tuples) / w
	rem := len(tuples) % w
	off := 0
	for i := 0; i < w; i++ {
		n := per
		if i < rem {
			n++
		}
		parts[i] = tuples[off : off+n]
		off += n
	}
	return parts
}

// worker is one parallel participant.
type worker struct {
	id       int
	cfg      Config
	alg      Algorithm
	inboxes  []chan message
	fallback *atomic.Bool
	m        *WorkerMetrics
	pools    *exchangePools

	// shared is the one concurrent table every worker folds into under
	// the Shared/AdaptiveShared algorithms (nil otherwise). sharedOv is
	// this worker's private overflow table for tuples plain Shared could
	// not absorb at the bound; the scan side fills it, the coordinator
	// drains it after every worker has finished.
	shared   *aggtable.Shared
	sharedOv *aggtable.Table

	// Contention-window accounting for AdaptiveShared, scan-side only.
	sharedSeen      int
	sharedContended int

	// Pending outbound batches, owned by the scan goroutine: the merge
	// side must never touch them (it receives full batches over the
	// inbox channels instead).
	//
	//aggvet:owner scan
	outRawC []*colRawBatch
	//aggvet:owner scan
	outPartC []*colPartBatch

	// Scan scratch: the columnar staging batch the scan side folds
	// chunks through (borrowed from the exchange pool for the scan), the
	// reusable refusal index list, and the shared table's partition
	// scratch. All reach 0 allocs/op after the first chunk.
	//
	//aggvet:owner scan
	scanB tuple.Batch
	//aggvet:owner scan
	refused []int
	//aggvet:owner scan
	sc aggtable.BatchScratch

	// drained is the buffer the scan side drains its local table into,
	// retained across drains so a refill-and-drain cycle allocates
	// nothing once it has reached the table's size.
	//
	//aggvet:owner scan
	drained []tuple.Partial
}

type workerMode int

const (
	modeLocal workerMode = iota
	modeRoute
	modeShared
)

// noteOcc records the table's high-water occupancy for the obs layer.
// It takes just the occupancy hook so the worker's local
// *aggtable.Table and the run's *aggtable.Shared both qualify.
func (wk *worker) noteOcc(tab interface{ OccupancyPermille() int }) {
	if occ := int64(tab.OccupancyPermille()); occ > wk.m.TableOcc {
		wk.m.TableOcc = occ
	}
}

// drainLocal records tab's occupancy, then drains it into the worker's
// retained buffer. The partials stay valid until the next drainLocal.
// They come out in slot order, which nothing observes: every drained
// partial is folded again on a merge side or lands in Result.Groups.
func (wk *worker) drainLocal(tab *aggtable.Table) []tuple.Partial {
	wk.noteOcc(tab)
	wk.drained = tab.AppendDrain(wk.drained[:0])
	return wk.drained
}

// finishLocal drains the local table, then processes the spill in bounded
// passes through the same (drained, capacity-keeping) table, exactly like
// the overflow-bucket loop of the paper. Each drain ships as partials. On
// error *spill holds the store still to be closed.
func (wk *worker) finishLocal(local *aggtable.Table, spill *spillStore) error {
	if wk.shared != nil {
		wk.noteOcc(wk.shared)
	}
	wk.flushPartialsB(wk.drainLocal(local))
	for *spill != nil && (*spill).len() > 0 {
		var next spillStore
		err := (*spill).drain(func(t tuple.Tuple) error {
			if local.UpdateRaw(t) {
				return nil
			}
			if next == nil {
				var nerr error
				if next, nerr = newSpillStore(wk.cfg); nerr != nil {
					return nerr
				}
			}
			return next.add(t)
		})
		(*spill).close()
		*spill = next
		if err != nil {
			return err
		}
		wk.flushPartialsB(wk.drainLocal(local))
	}
	return nil
}

// sharedContentionHigh is AdaptiveShared's switch predicate: more than
// SwitchRatio of the window's folds hit a held stripe lock.
func (wk *worker) sharedContentionHigh() bool {
	return float64(wk.sharedContended) > wk.cfg.SwitchRatio*float64(wk.sharedSeen)
}

// mergeSide folds everything routed to this worker into its final groups,
// in no particular order. The bounded merge table never evicts, so a key
// it refuses once it refuses for the rest of the run: refused tuples and
// partials fold straight into an unbounded overflow table, created on the
// first refusal, whose keys are therefore disjoint from the merge table's
// (DESIGN.md §13). The result is the two drains concatenated. Every folded
// batch goes back to the exchange pool, which is what keeps the
// steady-state data plane allocation-free.
func (wk *worker) mergeSide(inbox <-chan message) []tuple.Partial {
	global := aggtable.New(wk.cfg.TableEntries)
	var ov *aggtable.Table // the overflow table, nil until the first refusal
	overflow := func() *aggtable.Table {
		if ov == nil {
			ov = aggtable.New(0)
		}
		return ov
	}
	var refused []int // merge-goroutine-local batch refusal scratch
	srcs := make([]bool, wk.cfg.Workers)
	for m := range inbox {
		srcs[m.src] = true
		if m.craw != nil {
			refused = global.UpdateBatch(&m.craw.b, refused[:0])
			for _, ix := range refused {
				overflow().UpdateRaw(m.craw.b.At(ix))
			}
			wk.pools.colRaw.Put(m.craw)
		}
		if m.cpart != nil {
			refused = global.MergeBatch(&m.cpart.pb, refused[:0])
			for _, ix := range refused {
				overflow().MergePartial(m.cpart.pb.At(ix))
			}
			wk.pools.colPart.Put(m.cpart)
		}
	}
	for _, fed := range srcs {
		if fed {
			wk.m.FanIn++
		}
	}
	wk.noteOcc(global)
	n := global.Len()
	if ov != nil {
		n += ov.Len()
	}
	out := global.AppendDrain(make([]tuple.Partial, 0, n))
	if ov != nil {
		out = ov.AppendDrain(out)
	}
	return out
}

// flushAll sends every partially-filled batch.
func (wk *worker) flushAll() {
	for d := range wk.inboxes {
		if b := wk.outRawC[d]; b != nil {
			if b.b.Len() > 0 {
				wk.inboxes[d] <- message{src: wk.id, craw: b}
			} else {
				wk.pools.colRaw.Put(b)
			}
			wk.outRawC[d] = nil
		}
		if b := wk.outPartC[d]; b != nil {
			if b.pb.Len() > 0 {
				wk.inboxes[d] <- message{src: wk.id, cpart: b}
			} else {
				wk.pools.colPart.Put(b)
			}
			wk.outPartC[d] = nil
		}
	}
}
