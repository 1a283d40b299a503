package query

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"parallelagg/internal/live"
)

// adversarialCells are group-by cells that a separator-based or
// text-formatted key encoding would confuse: split points that move
// between columns, the empty string next to NULL and 0, separator and
// tag lookalikes inside strings (of the binary key as well as of a
// formatted one), and the integer extremes.
var adversarialCells = []Value{
	StrVal("ab"), StrVal("c"), StrVal("a"), StrVal("bc"),
	StrVal(""), NullValue, IntVal(0),
	StrVal(";"), StrVal(":"), StrVal("a;b"), StrVal("s1:"), StrVal("s1:a"),
	StrVal("i0"), StrVal("n"), StrVal("0"), StrVal("12"), StrVal("-1"),
	StrVal("s"), StrVal("as"), StrVal("sc"), StrVal("ss"), StrVal("s\x01a"),
	StrVal("i\x00\x00\x00\x00\x00\x00\x00\x00"),
	IntVal(1), IntVal(12), IntVal(-1), IntVal(-12),
	IntVal(math.MinInt64), IntVal(math.MaxInt64), IntVal(math.MinInt64 + 1),
}

// naiveGroup is the oracle's per-group fold over the value column.
type naiveGroup struct {
	cells                  [3]Value
	rows, n, sum, min, max int64
	seenVal                bool
	distinct               map[int64]bool
	distinctN, distinctSum int64
}

// naiveQuery folds rows one at a time into a map keyed by the group-by
// cells themselves and renders the result in Execute's column order:
// g0, g1, g2, COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v),
// COUNT(DISTINCT v), SUM(DISTINCT v).
func naiveQuery(rows []Row, where func(Row) bool) []Row {
	groups := map[[3]Value]*naiveGroup{}
	for _, r := range rows {
		if !where(r) {
			continue
		}
		key := [3]Value{r[0], r[1], r[2]}
		g := groups[key]
		if g == nil {
			g = &naiveGroup{cells: key, distinct: map[int64]bool{}}
			groups[key] = g
		}
		g.rows++
		v := r[3]
		if v.Null {
			continue
		}
		if !g.seenVal || v.Int < g.min {
			g.min = v.Int
		}
		if !g.seenVal || v.Int > g.max {
			g.max = v.Int
		}
		g.seenVal = true
		g.n++
		g.sum += v.Int
		if !g.distinct[v.Int] {
			g.distinct[v.Int] = true
			g.distinctN++
			g.distinctSum += v.Int
		}
	}
	out := make([]Row, 0, len(groups))
	for _, g := range groups {
		row := Row{g.cells[0], g.cells[1], g.cells[2], IntVal(g.rows), IntVal(g.n)}
		if g.n == 0 {
			row = append(row, NullValue, NullValue, NullValue, NullValue, IntVal(0), NullValue)
		} else {
			row = append(row, IntVal(g.sum), IntVal(g.sum/g.n), IntVal(g.min), IntVal(g.max),
				IntVal(g.distinctN), IntVal(g.distinctSum))
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool { return lessRow(out[i][:3], out[j][:3]) })
	return out
}

// TestExecuteMatchesNaiveFold checks Execute against a row-at-a-time map
// fold over three group-by columns drawn from adversarialCells, with a
// WHERE clause, NULL and extreme aggregate inputs and DISTINCT
// aggregates over the same cells, on every algorithm and a tight table
// bound so the adaptive paths run too.
func TestExecuteMatchesNaiveFold(t *testing.T) {
	vals := []Value{NullValue, IntVal(0), IntVal(-3), IntVal(7), IntVal(1 << 40), IntVal(math.MinInt64 / 4)}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := &Table{Schema: Schema{Cols: []Column{
			{Name: "g0", Type: String}, {Name: "g1", Type: String}, {Name: "g2", Type: Int64},
			{Name: "v", Type: Int64}, {Name: "w", Type: Int64},
		}}}
		rows := 200 + rng.Intn(800)
		for i := 0; i < rows; i++ {
			pick := func() Value { return adversarialCells[rng.Intn(len(adversarialCells))] }
			v := vals[rng.Intn(len(vals))]
			if rng.Intn(4) == 0 {
				v = IntVal(int64(rng.Intn(9)) - 4)
			}
			if err := tab.Append(Row{pick(), pick(), pick(), v, IntVal(int64(rng.Intn(10)))}); err != nil {
				t.Fatal(err)
			}
		}
		where := func(r Row) bool { return r[4].Int != 3 }
		q := Query{
			GroupBy: []string{"g0", "g1", "g2"},
			Aggs: []Agg{
				{Func: CountStar}, {Func: Count, Col: "v"}, {Func: Sum, Col: "v"}, {Func: Avg, Col: "v"},
				{Func: Min, Col: "v"}, {Func: Max, Col: "v"},
				{Func: Count, Col: "v", Distinct: true}, {Func: Sum, Col: "v", Distinct: true},
			},
			Where: where,
		}
		want := naiveQuery(tab.Rows, where)
		for _, alg := range live.Algorithms() {
			t.Run(fmt.Sprintf("seed%d/%v", seed, alg), func(t *testing.T) {
				res, err := Execute(tab, q, live.Config{Workers: 3, TableEntries: 16, InitSeg: 32, Batch: 64}, alg)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Rows) != len(want) {
					t.Fatalf("%d groups, naive fold has %d", len(res.Rows), len(want))
				}
				for i := range want {
					if !reflect.DeepEqual(res.Rows[i], want[i]) {
						t.Fatalf("row %d:\n got  %v\n want %v", i, res.Rows[i], want[i])
					}
				}
			})
		}
	}
}

// TestKeyDictSplitPointsAndTypes pins the injectivity cases one by one:
// each pair must get two keys, and re-encoding must return the first.
func TestKeyDictSplitPointsAndTypes(t *testing.T) {
	pairs := [][2]Row{
		{{StrVal("ab"), StrVal("c")}, {StrVal("a"), StrVal("bc")}},
		{{StrVal("as"), StrVal("c")}, {StrVal("a"), StrVal("sc")}},
		{{StrVal("s\x01a")}, {StrVal("a")}},
		{{StrVal("i\x00\x00\x00\x00\x00\x00\x00\x00")}, {IntVal(0)}},
		{{StrVal("n")}, {NullValue}},
		{{StrVal(""), NullValue}, {NullValue, StrVal("")}},
		{{NullValue}, {IntVal(0)}},
		{{StrVal("s1:a")}, {StrVal("a")}},
		{{StrVal("i0")}, {IntVal(0)}},
		{{StrVal("0")}, {IntVal(0)}},
		{{IntVal(math.MinInt64)}, {IntVal(math.MaxInt64)}},
		{{IntVal(-1)}, {IntVal(math.MaxInt64)}},
	}
	for _, p := range pairs {
		d := newKeyDict()
		a, b := d.encode(p[0]), d.encode(p[1])
		if a == b {
			t.Errorf("%v and %v share key %d", p[0], p[1], a)
		}
		if d.encode(p[0]) != a || d.encode(p[1]) != b {
			t.Errorf("%v / %v: re-encoding changed the key", p[0], p[1])
		}
	}
}

// TestAllocsPinKeyDictHit pins the per-row hot path: encoding a key the
// dictionary has already seen allocates nothing.
func TestAllocsPinKeyDictHit(t *testing.T) {
	d := newKeyDict()
	cells := Row{StrVal("returnflag"), StrVal("F"), IntVal(math.MinInt64), NullValue}
	want := d.encode(cells)
	allocs := testing.AllocsPerRun(1000, func() {
		if d.encode(cells) != want {
			t.Fatal("key changed")
		}
	})
	if allocs != 0 {
		t.Errorf("encode of a seen key allocates %.1f per op, want 0", allocs)
	}
}
