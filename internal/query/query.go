// Package query is a SQL-flavoured front-end over the parallel aggregation
// engine: multi-column rows, GROUP BY over several columns, multiple
// aggregate functions per query, WHERE predicates pushed below the
// aggregation, and HAVING applied after it — the full query shape of
// Section 2 of the paper:
//
//	SELECT   group-by columns, aggregates
//	FROM     table
//	[WHERE   predicate]
//	GROUP BY columns
//	[HAVING  predicate]
//
// Group-by values are mapped to dense 64-bit keys through an injective
// dictionary: each row's group-by cells are encoded once into a compact
// binary normalized key (tagged, length-prefixed bytes, never formatted
// text), and only a key the dictionary has not seen allocates. Each
// aggregated column becomes one engine pass, and the passes are stitched
// back into a result table. SQL NULL semantics are honoured: aggregates
// ignore NULL inputs, COUNT(*) counts rows, and a group whose aggregated
// column is entirely NULL yields NULL.
package query

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"parallelagg/internal/live"
	"parallelagg/internal/tuple"
)

// Type is a column type.
type Type int

const (
	// Int64 is a 64-bit integer column.
	Int64 Type = iota
	// String is a text column (usable in GROUP BY, not aggregatable).
	String
)

// Column describes one table column.
type Column struct {
	Name string
	Type Type
}

// Schema is an ordered column list.
type Schema struct {
	Cols []Column
}

// Index returns the position of the named column, or -1.
func (s Schema) Index(name string) int {
	for i, c := range s.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Value is one cell: an integer, a string, or SQL NULL.
type Value struct {
	Null bool
	Int  int64
	Str  string
}

// NullValue is the SQL NULL cell.
var NullValue = Value{Null: true}

// IntVal builds a non-null integer cell.
func IntVal(v int64) Value { return Value{Int: v} }

// StrVal builds a non-null string cell.
func StrVal(v string) Value { return Value{Str: v} }

// Row is one table row, cells in schema order.
type Row []Value

// Table is an in-memory relation.
type Table struct {
	Schema Schema
	Rows   []Row
}

// Append adds a row, validating its arity.
func (t *Table) Append(r Row) error {
	if len(r) != len(t.Schema.Cols) {
		return fmt.Errorf("query: row has %d cells, schema has %d columns", len(r), len(t.Schema.Cols))
	}
	t.Rows = append(t.Rows, r)
	return nil
}

// AggFunc is a SQL aggregate function.
type AggFunc int

const (
	// Count is COUNT(col): the number of non-null values.
	Count AggFunc = iota
	// CountStar is COUNT(*): the number of rows in the group.
	CountStar
	Sum
	// Avg is SQL-style integer average: SUM/COUNT with integer division.
	Avg
	Min
	Max
)

// String returns the SQL name.
func (f AggFunc) String() string {
	switch f {
	case Count:
		return "COUNT"
	case CountStar:
		return "COUNT(*)"
	case Sum:
		return "SUM"
	case Avg:
		return "AVG"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	default:
		return fmt.Sprintf("AggFunc(%d)", int(f))
	}
}

// Agg is one aggregate output: Func over Col, named As in the result.
// CountStar ignores Col. An empty As derives a name like "sum_qty".
// Distinct selects the SQL DISTINCT variant (COUNT(DISTINCT col) /
// SUM(DISTINCT col)); it is valid only for Count and Sum.
type Agg struct {
	Func     AggFunc
	Col      string
	As       string
	Distinct bool
}

func (a Agg) outName() string {
	if a.As != "" {
		return a.As
	}
	if a.Func == CountStar {
		return "count_star"
	}
	name := strings.ToLower(a.Func.String()) + "_" + a.Col
	if a.Distinct {
		name = strings.ToLower(a.Func.String()) + "_distinct_" + a.Col
	}
	return name
}

// Query is a GROUP BY aggregation over a table.
type Query struct {
	GroupBy []string
	Aggs    []Agg
	// Where, if set, filters input rows before aggregation.
	Where func(Row) bool
	// Having, if set, filters result rows after aggregation. It receives
	// the result row (group-by cells then aggregate cells, in order).
	Having func(Row) bool
	// OrderBy, if set, sorts the result rows by the named RESULT column
	// (a group-by column or an aggregate's output name) instead of the
	// default group-by order. Desc reverses it.
	OrderBy string
	Desc    bool
	// Limit truncates the result to the first Limit rows (after OrderBy
	// and Having). 0 means no limit; a negative Limit is an error.
	// Together with OrderBy this is the SQL top-k idiom.
	Limit int
}

// Result is the query output: one row per surviving group, columns =
// group-by columns followed by the aggregates, rows sorted by the group-by
// cells so results are deterministic.
type Result struct {
	Schema Schema
	Rows   []Row
}

// Col returns the values of the named result column.
func (r *Result) Col(name string) ([]Value, error) {
	i := r.Schema.Index(name)
	if i < 0 {
		return nil, fmt.Errorf("query: result has no column %q", name)
	}
	out := make([]Value, len(r.Rows))
	for j, row := range r.Rows {
		out[j] = row[i]
	}
	return out, nil
}

// validate resolves column references and checks aggregatability.
func (q Query) validate(s Schema) error {
	if len(q.GroupBy) == 0 && len(q.Aggs) == 0 {
		return fmt.Errorf("query: neither group-by columns nor aggregates given")
	}
	for _, g := range q.GroupBy {
		if s.Index(g) < 0 {
			return fmt.Errorf("query: unknown group-by column %q", g)
		}
	}
	for _, a := range q.Aggs {
		if a.Func == CountStar {
			if a.Distinct {
				return fmt.Errorf("query: DISTINCT is not supported for COUNT(*)")
			}
			continue
		}
		i := s.Index(a.Col)
		if i < 0 {
			return fmt.Errorf("query: unknown aggregate column %q", a.Col)
		}
		if s.Cols[i].Type != Int64 {
			return fmt.Errorf("query: cannot aggregate non-numeric column %q", a.Col)
		}
		if a.Distinct && a.Func != Count && a.Func != Sum {
			return fmt.Errorf("query: DISTINCT is only supported for COUNT and SUM, not %v", a.Func)
		}
	}
	if q.OrderBy != "" && !q.hasResultCol(q.OrderBy) {
		return fmt.Errorf("query: ORDER BY column %q not in the result", q.OrderBy)
	}
	if q.Limit < 0 {
		return fmt.Errorf("query: negative LIMIT %d", q.Limit)
	}
	return nil
}

// hasResultCol reports whether name is a result column: a group-by
// column or an aggregate's output name.
func (q Query) hasResultCol(name string) bool {
	for _, g := range q.GroupBy {
		if g == name {
			return true
		}
	}
	for _, a := range q.Aggs {
		if a.outName() == name {
			return true
		}
	}
	return false
}

// keyDict maps composite group-by cell tuples to dense engine keys and
// back. A tuple's key is its binary normalized key: per cell, 'n' for
// NULL, 's' + uvarint length + bytes for a string, 'i' + 8 little-endian
// bytes for an integer. Tags and length prefixes make the encoding
// injective, and it is built in a buffer the dictionary owns, so looking
// up a key already seen allocates nothing.
type keyDict struct {
	fwd  map[string]tuple.Key
	back []Row
	buf  []byte
}

func newKeyDict() *keyDict { return &keyDict{fwd: make(map[string]tuple.Key)} }

func (d *keyDict) encode(cells Row) tuple.Key {
	b := d.buf[:0]
	for _, c := range cells {
		switch {
		case c.Null:
			b = append(b, 'n')
		case c.Str != "":
			b = append(b, 's')
			b = binary.AppendUvarint(b, uint64(len(c.Str)))
			b = append(b, c.Str...)
		default:
			b = append(b, 'i')
			b = binary.LittleEndian.AppendUint64(b, uint64(c.Int))
		}
	}
	d.buf = b
	if k, ok := d.fwd[string(b)]; ok {
		return k
	}
	k := tuple.Key(len(d.back))
	d.fwd[string(b)] = k
	d.back = append(d.back, append(Row(nil), cells...))
	return k
}

// dropped marks a row the WHERE clause rejected. Dictionary keys are
// dense (0..G-1), so it never collides with a group.
const dropped = ^tuple.Key(0)

// Execute runs the query on the table using the live parallel engine with
// the given configuration and algorithm.
func Execute(t *Table, q Query, cfg live.Config, alg live.Algorithm) (*Result, error) {
	if err := q.validate(t.Schema); err != nil {
		return nil, err
	}

	gidx := make([]int, len(q.GroupBy))
	for i, g := range q.GroupBy {
		gidx[i] = t.Schema.Index(g)
	}

	// Encode group keys once, applying WHERE: keys[i] is row i's group,
	// or dropped.
	dict := newKeyDict()
	keys := make([]tuple.Key, len(t.Rows))
	cells := make(Row, len(gidx))
	selected := 0
	for i, r := range t.Rows {
		if q.Where != nil && !q.Where(r) {
			keys[i] = dropped
			continue
		}
		for j, gi := range gidx {
			cells[j] = r[gi]
		}
		keys[i] = dict.encode(cells)
		selected++
	}

	// Every pass refills this one input buffer; live.Aggregate does not
	// retain its input.
	in := make([]tuple.Tuple, 0, selected)

	// One engine pass per distinct aggregated column, plus a row-count
	// pass whenever COUNT(*) is requested or no column pass exists (pure
	// duplicate elimination). Group keys are dense dictionary indices
	// (0..G-1), so each pass's result is merged into a flat slice indexed
	// by key instead of a second map — the per-group lookup during result
	// assembly is then an array access.
	G := len(dict.back)
	colState := map[int]passState{}
	needRowCount := len(q.Aggs) == 0
	for _, a := range q.Aggs {
		if a.Func == CountStar {
			needRowCount = true
			continue
		}
		if a.Distinct {
			continue // DISTINCT aggregates run their own pass below
		}
		colState[t.Schema.Index(a.Col)] = passState{}
	}
	if len(colState) == 0 {
		needRowCount = true
	}
	runPass := func(col int) (passState, error) {
		in = in[:0]
		for i := range t.Rows {
			k := keys[i]
			if k == dropped {
				continue
			}
			v := int64(0)
			if col >= 0 {
				cell := t.Rows[i][col]
				if cell.Null {
					continue // SQL aggregates ignore NULLs
				}
				v = cell.Int
			}
			in = append(in, tuple.Tuple{Key: k, Val: v})
		}
		res, err := live.Aggregate(cfg, in, alg)
		if err != nil {
			return passState{}, err
		}
		ps := passState{st: make([]tuple.AggState, G), ok: make([]bool, G)}
		for k, s := range res.Groups {
			ps.st[k] = s
			ps.ok[k] = true
		}
		return ps, nil
	}
	for col := range colState {
		st, err := runPass(col)
		if err != nil {
			return nil, err
		}
		colState[col] = st
	}
	var rowCount passState
	if needRowCount {
		st, err := runPass(-1)
		if err != nil {
			return nil, err
		}
		rowCount = st
	}

	// DISTINCT passes: deduplicate (group, value) pairs through the
	// engine — parallel duplicate elimination, the paper's other use case
	// — then fold one representative per pair back into per-group counts
	// and sums, again in flat slices indexed by the dense group key
	// (count == 0 marks a group whose column was entirely NULL).
	distinctState := map[int][]distinctAgg{}
	for _, a := range q.Aggs {
		if !a.Distinct {
			continue
		}
		col := t.Schema.Index(a.Col)
		if _, done := distinctState[col]; done {
			continue
		}
		cd := newKeyDict()
		var backGroup []tuple.Key
		var backVal []int64
		in = in[:0]
		pair := make(Row, 2)
		for i := range t.Rows {
			k := keys[i]
			if k == dropped {
				continue
			}
			cell := t.Rows[i][col]
			if cell.Null {
				continue
			}
			pair[0] = IntVal(int64(k))
			pair[1] = cell
			before := len(cd.back)
			ck := cd.encode(pair)
			if len(cd.back) > before { // first sighting of this pair
				backGroup = append(backGroup, k)
				backVal = append(backVal, cell.Int)
			}
			in = append(in, tuple.Tuple{Key: ck, Val: cell.Int})
		}
		dres, err := live.Aggregate(cfg, in, alg)
		if err != nil {
			return nil, err
		}
		st := make([]distinctAgg, G)
		for ck := range dres.Groups {
			g := backGroup[ck]
			st[g].count++
			st[g].sum += backVal[ck]
		}
		distinctState[col] = st
	}

	// Result schema: group-by columns, then aggregates.
	out := &Result{}
	for _, g := range q.GroupBy {
		out.Schema.Cols = append(out.Schema.Cols, t.Schema.Cols[t.Schema.Index(g)])
	}
	for _, a := range q.Aggs {
		out.Schema.Cols = append(out.Schema.Cols, Column{Name: a.outName(), Type: Int64})
	}

	// Every dictionary entry was minted by a surviving input row, so the
	// dense key space 0..G-1 IS the union of groups across passes (a
	// group whose aggregated column is entirely NULL still exists).
	order := make([]tuple.Key, 0, G)
	for k := 0; k < G; k++ {
		order = append(order, tuple.Key(k))
	}
	sort.Slice(order, func(i, j int) bool {
		return lessRow(dict.back[order[i]], dict.back[order[j]])
	})

	for _, k := range order {
		row := append(Row(nil), dict.back[k]...)
		for _, a := range q.Aggs {
			if a.Distinct {
				da := distinctState[t.Schema.Index(a.Col)][k]
				switch {
				case a.Func == Count:
					row = append(row, IntVal(da.count))
				case da.count == 0:
					row = append(row, NullValue) // SUM of all-NULL column
				default:
					row = append(row, IntVal(da.sum))
				}
				continue
			}
			row = append(row, evalAgg(a, k, t.Schema, colState, rowCount))
		}
		if q.Having != nil && !q.Having(row) {
			continue
		}
		out.Rows = append(out.Rows, row)
	}
	if q.OrderBy != "" {
		col := out.Schema.Index(q.OrderBy) // validate checked it exists
		sort.SliceStable(out.Rows, func(i, j int) bool {
			a, b := Row{out.Rows[i][col]}, Row{out.Rows[j][col]}
			if q.Desc {
				return lessRow(b, a)
			}
			return lessRow(a, b)
		})
	}
	if q.Limit > 0 && len(out.Rows) > q.Limit {
		out.Rows = out.Rows[:q.Limit]
	}
	if r := cfg.Obs; r != nil {
		r.Counter("sql_queries_total", "queries executed").Inc()
		r.Counter("sql_rows_in_total", "table rows read (before WHERE)").Add(int64(len(t.Rows)))
		r.Counter("sql_rows_selected_total", "rows surviving the WHERE clause").Add(int64(selected))
		r.Counter("sql_groups_out_total", "result rows produced (after HAVING and LIMIT)").Add(int64(len(out.Rows)))
	}
	return out, nil
}

// passState is one engine pass's result, flattened onto the dense group
// key space: st[k] is group k's aggregate state, valid when ok[k].
type passState struct {
	st []tuple.AggState
	ok []bool
}

func (p passState) get(k tuple.Key) (tuple.AggState, bool) {
	if p.ok == nil || !p.ok[k] {
		return tuple.AggState{}, false
	}
	return p.st[k], true
}

// distinctAgg folds the deduplicated (group, value) pairs of one DISTINCT
// pass back into a per-group count and sum.
type distinctAgg struct{ count, sum int64 }

// evalAgg produces one aggregate cell for group k.
func evalAgg(a Agg, k tuple.Key, s Schema, colState map[int]passState, rowCount passState) Value {
	if a.Func == CountStar {
		if st, ok := rowCount.get(k); ok {
			return IntVal(st.Count)
		}
		return IntVal(0)
	}
	st, ok := colState[s.Index(a.Col)].get(k)
	if !ok {
		if a.Func == Count {
			return IntVal(0) // COUNT of an all-NULL column is 0, not NULL
		}
		return NullValue
	}
	switch a.Func {
	case Count:
		return IntVal(st.Count)
	case Sum:
		return IntVal(st.Sum)
	case Avg:
		return IntVal(st.Sum / st.Count)
	case Min:
		return IntVal(st.Min)
	case Max:
		return IntVal(st.Max)
	default:
		return NullValue
	}
}

// lessRow orders rows cell-wise: NULLs first, then by string, then by int.
func lessRow(a, b Row) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		x, y := a[i], b[i]
		switch {
		case x.Null && y.Null:
			continue
		case x.Null:
			return true
		case y.Null:
			return false
		case x.Str != y.Str:
			return x.Str < y.Str
		case x.Int != y.Int:
			return x.Int < y.Int
		}
	}
	return false
}
