package query

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"parallelagg/internal/live"
)

// lineitems builds a small lineitem-like table:
// (returnflag string, linestatus string, quantity int, price int).
func lineitems() *Table {
	t := &Table{Schema: Schema{Cols: []Column{
		{Name: "returnflag", Type: String},
		{Name: "linestatus", Type: String},
		{Name: "quantity", Type: Int64},
		{Name: "price", Type: Int64},
	}}}
	add := func(rf, ls string, qty, price Value) {
		if err := t.Append(Row{StrVal(rf), StrVal(ls), qty, price}); err != nil {
			panic(err)
		}
	}
	add("A", "F", IntVal(10), IntVal(100))
	add("A", "F", IntVal(20), IntVal(200))
	add("A", "O", IntVal(5), IntVal(50))
	add("N", "F", IntVal(7), NullValue) // NULL price
	add("N", "F", NullValue, IntVal(70))
	add("R", "O", IntVal(1), IntVal(10))
	return t
}

func exec(t *testing.T, tab *Table, q Query) *Result {
	t.Helper()
	res, err := Execute(tab, q, live.Config{Workers: 3}, live.AdaptiveTwoPhase)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestGroupByTwoColumnsAllAggregates(t *testing.T) {
	res := exec(t, lineitems(), Query{
		GroupBy: []string{"returnflag", "linestatus"},
		Aggs: []Agg{
			{Func: CountStar},
			{Func: Count, Col: "quantity"},
			{Func: Sum, Col: "quantity"},
			{Func: Avg, Col: "quantity"},
			{Func: Min, Col: "quantity"},
			{Func: Max, Col: "quantity"},
			{Func: Sum, Col: "price"},
		},
	})
	if len(res.Rows) != 4 {
		t.Fatalf("got %d groups, want 4:\n%v", len(res.Rows), res.Rows)
	}
	// Groups sort lexicographically: (A,F), (A,O), (N,F), (R,O).
	af := res.Rows[0]
	if af[0].Str != "A" || af[1].Str != "F" {
		t.Fatalf("first group = %v", af)
	}
	// (A,F): 2 rows, count(qty)=2, sum=30, avg=15, min=10, max=20, sum(price)=300.
	want := []int64{2, 2, 30, 15, 10, 20, 300}
	for i, w := range want {
		if got := af[2+i]; got.Null || got.Int != w {
			t.Errorf("(A,F) agg %d = %v, want %d", i, got, w)
		}
	}
	// (N,F): 2 rows, count(qty)=1 (one NULL), sum(qty)=7, sum(price)=70.
	nf := res.Rows[2]
	if nf[0].Str != "N" {
		t.Fatalf("third group = %v", nf)
	}
	if nf[2].Int != 2 || nf[3].Int != 1 || nf[4].Int != 7 || nf[8].Int != 70 {
		t.Errorf("(N,F) = %v", nf)
	}
}

func TestWherePushdown(t *testing.T) {
	tab := lineitems()
	qtyIdx := tab.Schema.Index("quantity")
	res := exec(t, tab, Query{
		GroupBy: []string{"returnflag"},
		Aggs:    []Agg{{Func: CountStar}},
		Where: func(r Row) bool {
			return !r[qtyIdx].Null && r[qtyIdx].Int >= 7
		},
	})
	// Rows surviving WHERE: (A,10), (A,20), (N,7) → groups A:2, N:1.
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %v", res.Rows)
	}
	if res.Rows[0][0].Str != "A" || res.Rows[0][1].Int != 2 {
		t.Errorf("A row = %v", res.Rows[0])
	}
	if res.Rows[1][0].Str != "N" || res.Rows[1][1].Int != 1 {
		t.Errorf("N row = %v", res.Rows[1])
	}
}

func TestHavingAppliedAfterAggregation(t *testing.T) {
	res := exec(t, lineitems(), Query{
		GroupBy: []string{"returnflag"},
		Aggs:    []Agg{{Func: Sum, Col: "quantity", As: "total"}},
		Having: func(r Row) bool {
			return !r[1].Null && r[1].Int > 10
		},
	})
	// Sums: A=35, N=7, R=1 → only A survives.
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "A" || res.Rows[0][1].Int != 35 {
		t.Errorf("rows = %v", res.Rows)
	}
	if res.Schema.Cols[1].Name != "total" {
		t.Errorf("aggregate name = %q", res.Schema.Cols[1].Name)
	}
}

func TestAllNullGroupYieldsNullAggregate(t *testing.T) {
	tab := &Table{Schema: Schema{Cols: []Column{
		{Name: "k", Type: Int64}, {Name: "v", Type: Int64},
	}}}
	tab.Append(Row{IntVal(1), NullValue})
	tab.Append(Row{IntVal(1), NullValue})
	tab.Append(Row{IntVal(2), IntVal(9)})
	res := exec(t, tab, Query{
		GroupBy: []string{"k"},
		Aggs: []Agg{
			{Func: Sum, Col: "v"},
			{Func: Count, Col: "v"},
			{Func: CountStar},
		},
	})
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	g1 := res.Rows[0]
	if !g1[1].Null {
		t.Errorf("SUM of all-NULL group = %v, want NULL", g1[1])
	}
	if g1[2].Null || g1[2].Int != 0 {
		t.Errorf("COUNT of all-NULL group = %v, want 0", g1[2])
	}
	if g1[3].Int != 2 {
		t.Errorf("COUNT(*) = %v, want 2", g1[3])
	}
}

func TestScalarAggregateNoGroupBy(t *testing.T) {
	tab := lineitems()
	res := exec(t, tab, Query{
		Aggs: []Agg{{Func: Sum, Col: "quantity"}, {Func: CountStar}},
	})
	if len(res.Rows) != 1 {
		t.Fatalf("scalar aggregate returned %d rows", len(res.Rows))
	}
	if res.Rows[0][0].Int != 43 || res.Rows[0][1].Int != 6 {
		t.Errorf("row = %v", res.Rows[0])
	}
}

func TestDuplicateElimination(t *testing.T) {
	// SELECT DISTINCT = GROUP BY with no aggregates.
	tab := &Table{Schema: Schema{Cols: []Column{{Name: "city", Type: String}}}}
	for _, c := range []string{"madison", "madison", "berkeley", "madison", "austin"} {
		tab.Append(Row{StrVal(c)})
	}
	res := exec(t, tab, Query{GroupBy: []string{"city"}})
	if len(res.Rows) != 3 {
		t.Fatalf("distinct rows = %v", res.Rows)
	}
	if res.Rows[0][0].Str != "austin" || res.Rows[2][0].Str != "madison" {
		t.Errorf("order = %v", res.Rows)
	}
}

func TestNullGroupKey(t *testing.T) {
	tab := &Table{Schema: Schema{Cols: []Column{
		{Name: "k", Type: String}, {Name: "v", Type: Int64},
	}}}
	tab.Append(Row{NullValue, IntVal(1)})
	tab.Append(Row{NullValue, IntVal(2)})
	tab.Append(Row{StrVal("x"), IntVal(3)})
	res := exec(t, tab, Query{GroupBy: []string{"k"}, Aggs: []Agg{{Func: Sum, Col: "v"}}})
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// NULL group sorts first and aggregates both NULL-keyed rows.
	if !res.Rows[0][0].Null || res.Rows[0][1].Int != 3 {
		t.Errorf("NULL group = %v", res.Rows[0])
	}
}

func TestInjectiveKeyEncoding(t *testing.T) {
	d := newKeyDict()
	// Pairs that naive separator-based encodings confuse.
	rows := []Row{
		{StrVal("a;b"), StrVal("c")},
		{StrVal("a"), StrVal("b;c")},
		{StrVal("a;"), StrVal("b;c")},
		{IntVal(12), IntVal(3)},
		{IntVal(1), IntVal(23)},
		{StrVal("1"), StrVal("23")},
		{NullValue, IntVal(0)},
		{IntVal(0), NullValue},
	}
	seen := map[interface{}]bool{}
	for _, r := range rows {
		k := d.encode(r)
		if seen[k] {
			t.Fatalf("key collision for %v", r)
		}
		seen[k] = true
	}
	// Same cells → same key.
	if d.encode(rows[0]) != d.encode(rows[0]) {
		t.Error("encode not stable")
	}
}

func TestValidationErrors(t *testing.T) {
	tab := lineitems()
	cases := []Query{
		{},
		{GroupBy: []string{"nope"}},
		{GroupBy: []string{"returnflag"}, Aggs: []Agg{{Func: Sum, Col: "nope"}}},
		{GroupBy: []string{"returnflag"}, Aggs: []Agg{{Func: Sum, Col: "linestatus"}}},
	}
	for i, q := range cases {
		if _, err := Execute(tab, q, live.Config{}, live.TwoPhase); err == nil {
			t.Errorf("case %d: bad query accepted", i)
		}
	}
}

func TestAppendArityChecked(t *testing.T) {
	tab := &Table{Schema: Schema{Cols: []Column{{Name: "a", Type: Int64}}}}
	if err := tab.Append(Row{IntVal(1), IntVal(2)}); err == nil {
		t.Error("wrong-arity row accepted")
	}
}

func TestResultColAccessor(t *testing.T) {
	res := exec(t, lineitems(), Query{
		GroupBy: []string{"returnflag"},
		Aggs:    []Agg{{Func: CountStar, As: "n"}},
	})
	col, err := res.Col("n")
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, v := range col {
		total += v.Int
	}
	if total != 6 {
		t.Errorf("counts sum to %d, want 6", total)
	}
	if _, err := res.Col("missing"); err == nil {
		t.Error("missing column accepted")
	}
}

// Property: the query layer agrees with a direct map-based evaluation for
// random single-column group-bys, for every live algorithm.
func TestQueryMatchesDirectEvaluationProperty(t *testing.T) {
	f := func(keys []uint8, vals []int8, algPick uint8) bool {
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		if n == 0 {
			return true
		}
		tab := &Table{Schema: Schema{Cols: []Column{
			{Name: "k", Type: Int64}, {Name: "v", Type: Int64},
		}}}
		type agg struct{ count, sum int64 }
		ref := map[int64]*agg{}
		for i := 0; i < n; i++ {
			k, v := int64(keys[i]%16), int64(vals[i])
			tab.Append(Row{IntVal(k), IntVal(v)})
			if ref[k] == nil {
				ref[k] = &agg{}
			}
			ref[k].count++
			ref[k].sum += v
		}
		alg := live.Algorithms()[int(algPick)%len(live.Algorithms())]
		res, err := Execute(tab, Query{
			GroupBy: []string{"k"},
			Aggs:    []Agg{{Func: CountStar}, {Func: Sum, Col: "v"}},
		}, live.Config{Workers: 3, TableEntries: 4, InitSeg: 8}, alg)
		if err != nil {
			return false
		}
		if len(res.Rows) != len(ref) {
			return false
		}
		for _, r := range res.Rows {
			a := ref[r[0].Int]
			if a == nil || r[1].Int != a.count || r[2].Int != a.sum {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAggFuncNames(t *testing.T) {
	for f, want := range map[AggFunc]string{
		Count: "COUNT", CountStar: "COUNT(*)", Sum: "SUM", Avg: "AVG", Min: "MIN", Max: "MAX",
	} {
		if f.String() != want {
			t.Errorf("%d.String() = %q", f, f.String())
		}
	}
	a := Agg{Func: Sum, Col: "qty"}
	if a.outName() != "sum_qty" {
		t.Errorf("outName = %q", a.outName())
	}
	if (Agg{Func: CountStar}).outName() != "count_star" {
		t.Error("count_star name wrong")
	}
}

// q1Sink keeps BenchmarkQueryQ1Shape's result live.
var q1Sink *Result

// BenchmarkQueryQ1Shape is the TPC-D Q1 shape perfbench's sql-q1
// workload runs: 64 Ki lineitem rows, GROUP BY the returnflag and
// linestatus strings (6 groups), a WHERE on shipdate keeping about 98% of
// the rows, and six aggregates. It times the query layer's per-row work
// (key encoding, pass inputs, result assembly) together with its engine
// passes.
func BenchmarkQueryQ1Shape(b *testing.B) {
	flags, statuses := []string{"A", "N", "R"}, []string{"F", "O"}
	rng := rand.New(rand.NewSource(1))
	tab := &Table{Schema: Schema{Cols: []Column{
		{Name: "returnflag", Type: String}, {Name: "linestatus", Type: String},
		{Name: "quantity", Type: Int64}, {Name: "price", Type: Int64},
		{Name: "discount", Type: Int64}, {Name: "shipdate", Type: Int64},
	}}}
	for i := 0; i < 64<<10; i++ {
		tab.Append(Row{
			StrVal(flags[rng.Intn(len(flags))]), StrVal(statuses[rng.Intn(len(statuses))]),
			IntVal(int64(1 + rng.Intn(50))), IntVal(int64(100 + rng.Intn(99_901))),
			IntVal(int64(rng.Intn(11))), IntVal(int64(rng.Intn(2557))),
		})
	}
	q := Query{
		GroupBy: []string{"returnflag", "linestatus"},
		Aggs: []Agg{
			{Func: CountStar, As: "count_order"},
			{Func: Sum, Col: "quantity", As: "sum_qty"},
			{Func: Sum, Col: "price", As: "sum_base_price"},
			{Func: Avg, Col: "quantity", As: "avg_qty"},
			{Func: Avg, Col: "discount", As: "avg_disc"},
			{Func: Max, Col: "price", As: "max_price"},
		},
		Where: func(r Row) bool { return r[5].Int <= 2505 },
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Execute(tab, q, live.Config{}, live.AdaptiveTwoPhase)
		if err != nil {
			b.Fatal(err)
		}
		q1Sink = res
	}
	b.ReportMetric(float64(len(tab.Rows))*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

func ExampleExecute() {
	tab := &Table{Schema: Schema{Cols: []Column{
		{Name: "city", Type: String},
		{Name: "sales", Type: Int64},
	}}}
	tab.Append(Row{StrVal("madison"), IntVal(10)})
	tab.Append(Row{StrVal("madison"), IntVal(30)})
	tab.Append(Row{StrVal("austin"), IntVal(5)})
	res, _ := Execute(tab, Query{
		GroupBy: []string{"city"},
		Aggs:    []Agg{{Func: Sum, Col: "sales", As: "total"}},
	}, live.Config{Workers: 2}, live.AdaptiveTwoPhase)
	for _, r := range res.Rows {
		fmt.Printf("%s %d\n", r[0].Str, r[1].Int)
	}
	// Output:
	// austin 5
	// madison 40
}

func TestOrderByAndLimitTopK(t *testing.T) {
	tab := &Table{Schema: Schema{Cols: []Column{
		{Name: "k", Type: Int64}, {Name: "v", Type: Int64},
	}}}
	// Sums: k=0 -> 5, k=1 -> 50, k=2 -> 20, k=3 -> 35.
	for _, r := range [][2]int64{{0, 5}, {1, 30}, {1, 20}, {2, 20}, {3, 35}} {
		tab.Append(Row{IntVal(r[0]), IntVal(r[1])})
	}
	res := exec(t, tab, Query{
		GroupBy: []string{"k"},
		Aggs:    []Agg{{Func: Sum, Col: "v", As: "total"}},
		OrderBy: "total",
		Desc:    true,
		Limit:   2,
	})
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].Int != 1 || res.Rows[0][1].Int != 50 {
		t.Errorf("top row = %v, want k=1 total=50", res.Rows[0])
	}
	if res.Rows[1][0].Int != 3 || res.Rows[1][1].Int != 35 {
		t.Errorf("second row = %v, want k=3 total=35", res.Rows[1])
	}
}

func TestOrderByAscending(t *testing.T) {
	tab := &Table{Schema: Schema{Cols: []Column{
		{Name: "k", Type: Int64}, {Name: "v", Type: Int64},
	}}}
	for _, r := range [][2]int64{{9, 1}, {5, 7}, {7, 3}} {
		tab.Append(Row{IntVal(r[0]), IntVal(r[1])})
	}
	res := exec(t, tab, Query{
		GroupBy: []string{"k"},
		Aggs:    []Agg{{Func: Sum, Col: "v", As: "s"}},
		OrderBy: "s",
	})
	var prev int64 = -1 << 62
	for _, r := range res.Rows {
		if r[1].Int < prev {
			t.Fatalf("rows not ascending by s: %v", res.Rows)
		}
		prev = r[1].Int
	}
}

func TestOrderByUnknownColumnRejected(t *testing.T) {
	tab := lineitems()
	_, err := Execute(tab, Query{
		GroupBy: []string{"returnflag"},
		Aggs:    []Agg{{Func: CountStar}},
		OrderBy: "nope",
	}, live.Config{}, live.TwoPhase)
	if err == nil {
		t.Error("unknown ORDER BY column accepted")
	}
}

func TestCountAndSumDistinct(t *testing.T) {
	tab := &Table{Schema: Schema{Cols: []Column{
		{Name: "k", Type: Int64}, {Name: "v", Type: Int64},
	}}}
	// Group 1: values 5,5,7 → distinct {5,7}; group 2: 9,NULL,9 → {9}.
	for _, r := range []struct {
		k int64
		v Value
	}{
		{1, IntVal(5)}, {1, IntVal(5)}, {1, IntVal(7)},
		{2, IntVal(9)}, {2, NullValue}, {2, IntVal(9)},
	} {
		tab.Append(Row{IntVal(r.k), r.v})
	}
	res := exec(t, tab, Query{
		GroupBy: []string{"k"},
		Aggs: []Agg{
			{Func: Count, Col: "v", Distinct: true, As: "nd"},
			{Func: Sum, Col: "v", Distinct: true, As: "sd"},
			{Func: Count, Col: "v", As: "n"},
			{Func: Sum, Col: "v", As: "s"},
		},
	})
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	g1 := res.Rows[0]
	if g1[1].Int != 2 || g1[2].Int != 12 || g1[3].Int != 3 || g1[4].Int != 17 {
		t.Errorf("group 1 = %v, want nd=2 sd=12 n=3 s=17", g1)
	}
	g2 := res.Rows[1]
	if g2[1].Int != 1 || g2[2].Int != 9 || g2[3].Int != 2 || g2[4].Int != 18 {
		t.Errorf("group 2 = %v, want nd=1 sd=9 n=2 s=18", g2)
	}
}

func TestDistinctAllNullGroup(t *testing.T) {
	tab := &Table{Schema: Schema{Cols: []Column{
		{Name: "k", Type: Int64}, {Name: "v", Type: Int64},
	}}}
	tab.Append(Row{IntVal(1), NullValue})
	res := exec(t, tab, Query{
		GroupBy: []string{"k"},
		Aggs: []Agg{
			{Func: Count, Col: "v", Distinct: true},
			{Func: Sum, Col: "v", Distinct: true},
		},
	})
	if res.Rows[0][1].Int != 0 {
		t.Errorf("COUNT(DISTINCT all-NULL) = %v, want 0", res.Rows[0][1])
	}
	if !res.Rows[0][2].Null {
		t.Errorf("SUM(DISTINCT all-NULL) = %v, want NULL", res.Rows[0][2])
	}
}

func TestDistinctRejectedForMinMax(t *testing.T) {
	tab := lineitems()
	_, err := Execute(tab, Query{
		GroupBy: []string{"returnflag"},
		Aggs:    []Agg{{Func: Min, Col: "quantity", Distinct: true}},
	}, live.Config{}, live.TwoPhase)
	if err == nil {
		t.Error("MIN(DISTINCT) accepted")
	}
}

func TestDistinctOutputName(t *testing.T) {
	a := Agg{Func: Count, Col: "v", Distinct: true}
	if a.outName() != "count_distinct_v" {
		t.Errorf("outName = %q", a.outName())
	}
}

// TestValidateRejects pins one rejection per validation rule, each
// caught before any engine pass runs, by the words its error must name.
func TestValidateRejects(t *testing.T) {
	group := []string{"returnflag"}
	cases := []struct {
		name string
		q    Query
		want string
	}{
		{"empty query", Query{}, "neither group-by columns nor aggregates"},
		{"unknown group-by column", Query{GroupBy: []string{"nope"}}, "unknown group-by column"},
		{"unknown aggregate column", Query{GroupBy: group, Aggs: []Agg{{Func: Sum, Col: "nope"}}}, "unknown aggregate column"},
		{"non-numeric aggregate", Query{GroupBy: group, Aggs: []Agg{{Func: Sum, Col: "linestatus"}}}, "non-numeric"},
		{"DISTINCT MIN", Query{GroupBy: group, Aggs: []Agg{{Func: Min, Col: "quantity", Distinct: true}}}, "DISTINCT"},
		{"DISTINCT COUNT(*)", Query{GroupBy: group, Aggs: []Agg{{Func: CountStar, Distinct: true}}}, "DISTINCT"},
		{"unknown ORDER BY column", Query{GroupBy: group, Aggs: []Agg{{Func: CountStar}}, OrderBy: "quantity"}, "ORDER BY"},
		{"negative LIMIT", Query{GroupBy: group, Aggs: []Agg{{Func: CountStar}}, Limit: -1}, "LIMIT"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Execute(lineitems(), c.q, live.Config{Workers: 2}, live.TwoPhase)
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not name %q", err, c.want)
			}
		})
	}
}
