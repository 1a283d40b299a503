package main

import (
	"fmt"
	"sort"

	"parallelagg/internal/tuple"
	"parallelagg/sqlagg"
)

// rng is splitmix64. The benchmark owns its generator so that a change to
// the program's own workload generators cannot move the inputs.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix(r.s)
}

// intn returns a value in [0, n); the modulo bias is far below anything
// the workloads depend on.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// mix is the splitmix64 finalizer. It is a bijection on uint64, so
// distinct group ids always map to distinct keys.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// keyed is a generated GROUP BY input: rows spread evenly over a fixed
// number of groups, in random order.
type keyed struct {
	tuples []tuple.Tuple
	dense  []int32 // group index 0..groups-1 of each tuple
	groups int
}

// genKeyed makes rows tuples over exactly groups groups: row i starts in
// group i mod groups, then a seeded shuffle scatters the rows so that
// consecutive rows rarely share a group. Keys are a seeded bijection of
// the group index and values are uniform in [-1e6, 1e6].
func genKeyed(seed uint64, rows, groups int) keyed {
	r := rng{s: seed}
	salt := mix(seed ^ 0x5bd1e995)
	in := keyed{tuples: make([]tuple.Tuple, rows), dense: make([]int32, rows), groups: groups}
	for i := range in.dense {
		in.dense[i] = int32(i % groups)
	}
	for i := rows - 1; i > 0; i-- {
		j := r.intn(i + 1)
		in.dense[i], in.dense[j] = in.dense[j], in.dense[i]
	}
	for i, g := range in.dense {
		in.tuples[i] = tuple.Tuple{Key: tuple.Key(mix(uint64(g) + salt)), Val: int64(r.intn(2_000_001)) - 1_000_000}
	}
	return in
}

// agg is the oracle's aggregate state, kept apart from tuple.AggState so
// the oracle shares no code with the program it checks.
type agg struct{ count, sum, sumSq, min, max int64 }

func (a *agg) add(v int64) {
	if a.count == 0 {
		*a = agg{count: 1, sum: v, sumSq: v * v, min: v, max: v}
		return
	}
	a.count++
	a.sum += v
	a.sumSq += v * v
	a.min = min(a.min, v)
	a.max = max(a.max, v)
}

func (a agg) matches(s tuple.AggState) bool {
	return a.count == s.Count && a.sum == s.Sum && a.sumSq == s.SumSq && a.min == s.Min && a.max == s.Max
}

// oracle is the expected result of one GROUP BY, folded row by row into a
// plain map.
type oracle struct {
	groups map[tuple.Key]agg
	keys   []tuple.Key // ascending, so the first wrong group is the same on every run
}

func foldOracle(ts []tuple.Tuple) *oracle {
	o := &oracle{groups: make(map[tuple.Key]agg)}
	for _, t := range ts {
		a := o.groups[t.Key]
		a.add(t.Val)
		o.groups[t.Key] = a
	}
	o.keys = make([]tuple.Key, 0, len(o.groups))
	for k := range o.groups {
		o.keys = append(o.keys, k)
	}
	sort.Slice(o.keys, func(i, j int) bool { return o.keys[i] < o.keys[j] })
	return o
}

// check compares a result exactly with the oracle and names the first
// wrong group in key order.
func (o *oracle) check(got map[tuple.Key]tuple.AggState) error {
	for _, k := range o.keys {
		want := o.groups[k]
		s, ok := got[k]
		if !ok {
			return fmt.Errorf("group %d missing from the result", k)
		}
		if !want.matches(s) {
			return fmt.Errorf("group %d: got %v, want count=%d sum=%d sumsq=%d min=%d max=%d",
				k, s, want.count, want.sum, want.sumSq, want.min, want.max)
		}
	}
	if len(got) != len(o.keys) {
		extra := false
		var first tuple.Key
		for k := range got {
			if _, ok := o.groups[k]; !ok && (!extra || k < first) {
				extra, first = true, k
			}
		}
		return fmt.Errorf("group %d is not in the input (%d groups returned, %d expected)", first, len(got), len(o.keys))
	}
	return nil
}

// q1 is a TPC-D Q1-shaped table with its query and expected result.
type q1 struct {
	table  *sqlagg.Table
	query  sqlagg.Query
	want   []sqlagg.Row
	stream keyed // the rows passing WHERE as (group, quantity) tuples
}

var (
	q1Flags    = []string{"A", "N", "R"}
	q1Statuses = []string{"F", "O"}
)

// q1Cutoff keeps shipdates 0..2505 of 0..2556, about 98% of the rows.
const q1Cutoff = 2505

// genQ1 makes the lineitem-like table: returnflag, linestatus, quantity
// 1..50, price 100..100000, discount 0..10 and shipdate 0..2556.
func genQ1(seed uint64, rows int) *q1 {
	r := rng{s: seed}
	schema := sqlagg.Schema{Cols: []sqlagg.Column{
		{Name: "returnflag", Type: sqlagg.String},
		{Name: "linestatus", Type: sqlagg.String},
		{Name: "quantity", Type: sqlagg.Int64},
		{Name: "price", Type: sqlagg.Int64},
		{Name: "discount", Type: sqlagg.Int64},
		{Name: "shipdate", Type: sqlagg.Int64},
	}}
	t := &sqlagg.Table{Schema: schema, Rows: make([]sqlagg.Row, 0, rows)}
	for i := 0; i < rows; i++ {
		t.Rows = append(t.Rows, sqlagg.Row{
			sqlagg.StrVal(q1Flags[r.intn(len(q1Flags))]),
			sqlagg.StrVal(q1Statuses[r.intn(len(q1Statuses))]),
			sqlagg.IntVal(int64(1 + r.intn(50))),
			sqlagg.IntVal(int64(100 + r.intn(99_901))),
			sqlagg.IntVal(int64(r.intn(11))),
			sqlagg.IntVal(int64(r.intn(2557))),
		})
	}
	q := sqlagg.Query{
		GroupBy: []string{"returnflag", "linestatus"},
		Aggs: []sqlagg.Agg{
			{Func: sqlagg.CountStar, As: "count_order"},
			{Func: sqlagg.Sum, Col: "quantity", As: "sum_qty"},
			{Func: sqlagg.Sum, Col: "price", As: "sum_base_price"},
			{Func: sqlagg.Avg, Col: "quantity", As: "avg_qty"},
			{Func: sqlagg.Avg, Col: "discount", As: "avg_disc"},
			{Func: sqlagg.Max, Col: "price", As: "max_price"},
		},
		Where: func(r sqlagg.Row) bool { return r[5].Int <= q1Cutoff },
	}
	out := &q1{table: t, query: q}
	out.want, out.stream = foldQ1(t.Rows)
	return out
}

// foldQ1 is the Q1 oracle: it folds the table row by row on the cell
// values. It also returns the rows passing WHERE as the tuple stream the
// engine folds (group index, quantity), for the layer probes.
func foldQ1(rows []sqlagg.Row) ([]sqlagg.Row, keyed) {
	type group struct{ count, sumQty, sumPrice, sumDisc, maxPrice int64 }
	var gs [6]group
	stream := keyed{groups: len(gs)}
	for _, r := range rows {
		if r[5].Int > q1Cutoff {
			continue
		}
		gi := 0
		for i, f := range q1Flags {
			if r[0].Str == f {
				gi = 2 * i
			}
		}
		if r[1].Str == q1Statuses[1] {
			gi++
		}
		g := &gs[gi]
		if g.count == 0 || r[3].Int > g.maxPrice {
			g.maxPrice = r[3].Int
		}
		g.count++
		g.sumQty += r[2].Int
		g.sumPrice += r[3].Int
		g.sumDisc += r[4].Int
		stream.tuples = append(stream.tuples, tuple.Tuple{Key: tuple.Key(gi), Val: r[2].Int})
		stream.dense = append(stream.dense, int32(gi))
	}
	var want []sqlagg.Row
	for gi, g := range gs {
		if g.count == 0 {
			continue
		}
		want = append(want, sqlagg.Row{
			sqlagg.StrVal(q1Flags[gi/2]), sqlagg.StrVal(q1Statuses[gi%2]),
			sqlagg.IntVal(g.count), sqlagg.IntVal(g.sumQty), sqlagg.IntVal(g.sumPrice),
			sqlagg.IntVal(g.sumQty / g.count), sqlagg.IntVal(g.sumDisc / g.count),
			sqlagg.IntVal(g.maxPrice),
		})
	}
	return want, stream
}

// checkRows compares a query result exactly with the expected rows and
// names the first wrong group by its group-by cells.
func checkRows(want, got []sqlagg.Row) error {
	for i, w := range want {
		if i >= len(got) {
			return fmt.Errorf("group (%s,%s) missing from the result", w[0].Str, w[1].Str)
		}
		g := got[i]
		if len(g) != len(w) {
			return fmt.Errorf("group (%s,%s): result row has %d cells, want %d", w[0].Str, w[1].Str, len(g), len(w))
		}
		for c := range w {
			if g[c] != w[c] {
				return fmt.Errorf("group (%s,%s): cell %d is %+v, want %+v", w[0].Str, w[1].Str, c, g[c], w[c])
			}
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("result has %d groups, want %d", len(got), len(want))
	}
	return nil
}
