package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"parallelagg/internal/aggtable"
	"parallelagg/internal/tuple"
)

// batchLen is the rows per batch and frame the layer probes use: the live
// engine's exchange batch for tables, the dist frame size for codecs.
const (
	batchLen = 4096
	frameLen = 1024
)

// sink keeps the compiler from discarding decoded values.
var sink int64

// repeat runs one layer probe once untimed, then times it until budget
// has passed and at least three timed runs are done. f returns one value
// per metric; repeat returns the median of each. Every run gets a span.
func repeat(rec *recorder, name string, budget time.Duration, f func() []float64) []float64 {
	f()
	var runs [][]float64
	start := time.Now()
	for len(runs) < 3 || time.Since(start) < budget {
		s := rec.now()
		runs = append(runs, f())
		rec.add(0, -1, name, s, rec.now())
	}
	out := make([]float64, len(runs[0]))
	col := make([]float64, len(runs))
	for m := range out {
		for i, r := range runs {
			col[i] = r[m]
		}
		out[m] = median(col)
	}
	return out
}

func nsPer(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// chunks cuts ts into consecutive slices of at most n rows.
func chunks[T any](ts []T, n int) [][]T {
	var out [][]T
	for len(ts) > 0 {
		c := min(n, len(ts))
		out = append(out, ts[:c])
		ts = ts[c:]
	}
	return out
}

// partials converts the oracle's groups to the program's partial tuples,
// in key order.
func (o *oracle) partials() []tuple.Partial {
	ps := make([]tuple.Partial, len(o.keys))
	for i, k := range o.keys {
		a := o.groups[k]
		ps[i] = tuple.Partial{Key: k, State: tuple.AggState{Count: a.count, Sum: a.sum, SumSq: a.sumSq, Min: a.min, Max: a.max}}
	}
	return ps
}

// tupleProbes times the tuple layer on the workload's tuple stream: the
// aggregate fold, batch building, and the four wire codecs. Round trips
// and folds are checked against the input and the oracle once, untimed.
func tupleProbes(in keyed, orc *oracle, rec *recorder, budget time.Duration, t *tally) map[string]float64 {
	out := map[string]float64{}
	each := budget / 6
	states := make([]tuple.AggState, in.groups)
	fold := func() {
		clear(states)
		for i, tp := range in.tuples {
			s := &states[in.dense[i]]
			if s.Count == 0 {
				*s = tuple.NewState(tp.Val)
			} else {
				s.Update(tp.Val)
			}
		}
	}
	fold()
	t.record("tuple fold", func() error {
		got := make(map[tuple.Key]tuple.AggState, in.groups)
		for i, tp := range in.tuples {
			got[tp.Key] = states[in.dense[i]]
		}
		return orc.check(got)
	}, nil)
	out["tuple.fold_ns_per_row"] = repeat(rec, "probe.tuple.AggState.Update", each, func() []float64 {
		s := time.Now()
		fold()
		return []float64{nsPer(time.Since(s), len(in.tuples))}
	})[0]

	b := tuple.NewBatch(batchLen)
	rows := chunks(in.tuples, batchLen)
	out["tuple.batch_append_ns_per_row"] = repeat(rec, "probe.tuple.Batch.AppendRows", each, func() []float64 {
		s := time.Now()
		for _, c := range rows {
			b.Reset()
			b.AppendRows(c)
		}
		return []float64{nsPer(time.Since(s), len(in.tuples))}
	})[0]

	// Partial records: the workload's groups, repeated to at least 64 Ki
	// records so that a six-group workload still times a long run.
	parts := orc.partials()
	for len(parts) < 64<<10 {
		parts = append(parts, parts...)
	}
	var buf [tuple.PartialSize]byte
	out["tuple.raw_codec_ns_per_row"] = repeat(rec, "probe.tuple.EncodeRaw+DecodeRaw", each, func() []float64 {
		s := time.Now()
		for _, tp := range in.tuples {
			tuple.EncodeRaw(buf[:], tp)
			sink += tuple.DecodeRaw(buf[:]).Val
		}
		return []float64{nsPer(time.Since(s), len(in.tuples))}
	})[0]
	out["tuple.partial_codec_ns_per_row"] = repeat(rec, "probe.tuple.EncodePartial+DecodePartial", each, func() []float64 {
		s := time.Now()
		for _, p := range parts {
			tuple.EncodePartial(buf[:], p)
			sink += tuple.DecodePartial(buf[:]).State.Sum
		}
		return []float64{nsPer(time.Since(s), len(parts))}
	})[0]

	frame := make([]byte, frameLen*tuple.PartialSize)
	rawDst := make([]tuple.Tuple, 0, frameLen)
	rawFrames := chunks(in.tuples, frameLen)
	rawCol := func() {
		for _, c := range rawFrames {
			tuple.EncodeRawCol(frame[:len(c)*tuple.RawSize], c)
			rawDst = tuple.DecodeRawCol(rawDst[:0], frame[:len(c)*tuple.RawSize], len(c))
		}
	}
	rawCol()
	t.record("tuple raw columnar round trip", func() error {
		return sameRows(rawDst, rawFrames[len(rawFrames)-1])
	}, nil)
	out["tuple.rawcol_codec_ns_per_row"] = repeat(rec, "probe.tuple.EncodeRawCol+DecodeRawCol", each, func() []float64 {
		s := time.Now()
		rawCol()
		return []float64{nsPer(time.Since(s), len(in.tuples))}
	})[0]

	partDst := make([]tuple.Partial, 0, frameLen)
	partFrames := chunks(parts, frameLen)
	partCol := func() {
		for _, c := range partFrames {
			tuple.EncodePartialCol(frame[:len(c)*tuple.PartialSize], c)
			partDst = tuple.DecodePartialCol(partDst[:0], frame[:len(c)*tuple.PartialSize], len(c))
		}
	}
	partCol()
	t.record("tuple partial columnar round trip", func() error {
		return sameRows(partDst, partFrames[len(partFrames)-1])
	}, nil)
	out["tuple.partialcol_codec_ns_per_row"] = repeat(rec, "probe.tuple.EncodePartialCol+DecodePartialCol", each, func() []float64 {
		s := time.Now()
		partCol()
		return []float64{nsPer(time.Since(s), len(parts))}
	})[0]
	return out
}

func sameRows[T comparable](got, want []T) error {
	if len(got) != len(want) {
		return fmt.Errorf("decoded %d records, encoded %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("record %d decoded as %v, encoded %v", i, got[i], want[i])
		}
	}
	return nil
}

// pass is the timing of one two-phase pass over the stream through
// aggtable tables, the way a 2P worker uses them.
type pass struct {
	fold, refill, drain, merge             time.Duration
	foldRows, refillRows, refused, drained int
	partials                               int
	result                                 *aggtable.Table
}

// tablePass folds the stream in batches into a Table bounded at
// tableEntries. When the table refuses rows it is drained and the refused
// rows fold again into the emptied table; every fold after the first
// drain counts as refill. The drained partials then merge into an
// unbounded table, whose contents must equal the oracle.
func tablePass(in keyed) pass {
	var p pass
	t := aggtable.New(tableEntries)
	var batches [2]*tuple.Batch
	batches[0], batches[1] = tuple.NewBatch(batchLen), tuple.NewBatch(batchLen)
	var refused []int
	var drained []tuple.Partial
	drain := func() {
		s := time.Now()
		ps := t.Drain()
		p.drain += time.Since(s)
		p.drained += len(ps)
		drained = append(drained, ps...)
	}
	for _, c := range chunks(in.tuples, batchLen) {
		cur, spare := batches[0], batches[1]
		cur.Reset()
		cur.AppendRows(c)
		for first := true; ; first = false {
			s := time.Now()
			refused = t.UpdateBatch(cur, refused[:0])
			d := time.Since(s)
			if p.drained > 0 {
				p.refill += d
				p.refillRows += cur.Len()
			} else {
				p.fold += d
				p.foldRows += cur.Len()
			}
			if first {
				p.refused += len(refused)
			}
			if len(refused) == 0 {
				break
			}
			drain()
			spare.Reset()
			for _, ix := range refused {
				spare.Append(cur.Keys[ix], cur.Vals[ix])
			}
			cur, spare = spare, cur
		}
	}
	drain()

	m := aggtable.New(0)
	pb := tuple.NewPartialBatch(batchLen)
	for _, c := range chunks(drained, batchLen) {
		pb.Reset()
		for _, pt := range c {
			pb.Append(pt)
		}
		s := time.Now()
		refused = m.MergeBatch(pb, refused[:0])
		p.merge += time.Since(s)
	}
	p.partials = len(drained)
	p.result = m
	return p
}

// tableProbes times the aggtable layer on the workload's tuple stream:
// the sequential two-phase pass, and a Shared table folded from one
// goroutine per worker.
func tableProbes(in keyed, orc *oracle, workers int, rec *recorder, budget time.Duration, t *tally) map[string]float64 {
	t.record("aggtable two-phase pass", func() error {
		got := map[tuple.Key]tuple.AggState{}
		for _, pt := range tablePass(in).result.Partials() {
			got[pt.Key] = pt.State
		}
		return orc.check(got)
	}, nil)
	v := repeat(rec, "probe.aggtable.Table", budget/2, func() []float64 {
		p := tablePass(in)
		rows := len(in.tuples)
		return []float64{
			nsPer(p.fold, p.foldRows),
			float64(p.refused) / float64(rows),
			nsPer(p.drain, p.drained),
			nsPer(p.refill, p.refillRows),
			nsPer(p.merge, p.partials),
			float64((p.drain + p.refill + p.merge).Nanoseconds()) / 1e6,
		}
	})
	out := map[string]float64{
		"aggtable.fold_ns_per_row":       v[0],
		"aggtable.refused_share":         v[1],
		"aggtable.drain_ns_per_group":    v[2],
		"aggtable.refill_ns_per_row":     v[3],
		"aggtable.merge_ns_per_partial":  v[4],
		"aggtable.drain_refill_merge_ms": v[5],
	}

	// One prebuilt batch list per worker, so the timed region is the fold.
	parts := split(in.tuples, workers)
	batches := make([][]*tuple.Batch, workers)
	for w, part := range parts {
		for _, c := range chunks(part, batchLen) {
			b := tuple.NewBatch(len(c))
			b.AppendRows(c)
			batches[w] = append(batches[w], b)
		}
	}
	v = repeat(rec, "probe.aggtable.Shared.UpdateBatchContended", budget/2, func() []float64 {
		s := aggtable.NewShared(tableEntries*workers, 0)
		contended := make([]int, workers)
		var wg sync.WaitGroup
		wg.Add(workers)
		start := time.Now()
		for w := 0; w < workers; w++ {
			w := w
			go func() {
				defer wg.Done()
				var sc aggtable.BatchScratch
				var refused []int
				for _, b := range batches[w] {
					var c int
					refused, c = s.UpdateBatchContended(&sc, b, refused[:0])
					contended[w] += c
				}
			}()
		}
		wg.Wait()
		d := time.Since(start)
		total := 0
		for _, c := range contended {
			total += c
		}
		return []float64{nsPer(d, len(in.tuples)), float64(total) / float64(len(in.tuples))}
	})
	out["aggtable.shared_fold_ns_per_row"] = v[0]
	out["aggtable.shared_contended_share"] = v[1]
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
