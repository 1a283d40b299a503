package dist

import (
	"fmt"

	"parallelagg/internal/aggtable"
	"parallelagg/internal/tuple"
)

// nodeTable is the scan side's local aggregation table, shared by the
// fail-fast scan, the tolerant primary scan and tolerant recovery jobs: a
// table bounded at Config.TableEntries plus the buffers a flush fills.
// The table keeps its slot arrays and the buffers their capacity across
// flushes, so a 2P scan that flushes many times stops allocating once the
// first flush has sized them.
//
// A flush ships partials in drain (slot) order, not key order, in frames
// of at most Config.Batch records. Slot order is a function of the
// unseeded Key.Hash and the insertion history, and one goroutine scans
// each partition, so the same partition under the same bound produces the
// same frames on every run; receivers fold commutatively and depend on no
// order.
type nodeTable struct {
	t     *aggtable.Table
	batch int
	drain []tuple.Partial
	out   [][]tuple.Partial // per-destination partial buffers
}

// newNodeTable returns a table bounded at bound whose flushes split
// partials among n destinations in frames of at most batch records.
// expected sizes the slot arrays upfront; 0 starts at the minimum size.
func newNodeTable(bound, expected, n, batch int) *nodeTable {
	return &nodeTable{t: aggtable.NewSized(bound, expected), batch: batch, out: make([][]tuple.Partial, n)}
}

// scanTableSize is the expected size of a scan-side table over rows
// tuples. A bounded table that the scan starts filling (2P and A-2P) is
// built at the most it can hold, min(bound, rows), instead of regrowing
// to it on every query; a scan with fewer groups pays for its whole
// budget up front. Rep and A-Rep start by routing, so theirs starts
// small.
func scanTableSize(cfg Config, rows int) int {
	if cfg.TableEntries > 0 && (cfg.Algorithm == TwoPhase || cfg.Algorithm == AdaptiveTwoPhase) {
		return min(cfg.TableEntries, rows)
	}
	return 0
}

// fold folds one raw tuple into the table. It returns false when the
// tuple's group is absent and the table is at its bound; the tuple is then
// not absorbed.
func (nt *nodeTable) fold(tp tuple.Tuple) bool { return nt.t.UpdateRaw(tp) }

// flush empties the table, splitting its groups by dest, and hands each
// destination's partials to write in slices of at most batch records: a
// destination's slice is written as soon as it fills, and the remainders
// go out last, in destination order. The slice passed to write is reused
// once write returns. flush stops at the first write error.
func (nt *nodeTable) flush(dest func(tuple.Key) int, write func(d int, ps []tuple.Partial) error) error {
	nt.drain = nt.t.AppendDrain(nt.drain[:0])
	for d := range nt.out {
		if cap(nt.out[d]) == 0 {
			nt.out[d] = make([]tuple.Partial, 0, min(nt.batch, len(nt.drain)))
		}
		nt.out[d] = nt.out[d][:0]
	}
	for _, p := range nt.drain {
		d := dest(p.Key)
		nt.out[d] = append(nt.out[d], p)
		if len(nt.out[d]) == nt.batch {
			if err := write(d, nt.out[d]); err != nil {
				return err
			}
			nt.out[d] = nt.out[d][:0]
		}
	}
	for d, ps := range nt.out {
		if len(ps) > 0 {
			if err := write(d, ps); err != nil {
				return err
			}
		}
	}
	return nil
}

// ownedGroups builds node id's result map from its drained merge table ps,
// after checking that every group hashes to a merge range the node owns;
// owner maps a range to its owning node. A misrouted group fails the node,
// naming the smallest offending key so the error is the same on every run.
func ownedGroups(id, n int, ps []tuple.Partial, owner func(r int) int) (map[tuple.Key]tuple.AggState, error) {
	misrouted := false
	var bad tuple.Key
	for _, p := range ps {
		if owner(p.Key.Dest(n)) != id && (!misrouted || p.Key < bad) {
			misrouted, bad = true, p.Key
		}
	}
	if misrouted {
		o := owner(bad.Dest(n))
		return nil, nodeErr(id, o, PhaseMerge, fmt.Errorf("received group %d owned by node %d", bad, o))
	}
	groups := make(map[tuple.Key]tuple.AggState, len(ps))
	for _, p := range ps {
		groups[p.Key] = p.State
	}
	return groups, nil
}
