// Fixtures for maporder scoped to the aggregation-table package: the
// determinism contract says Drain/Partials expose entries in sorted key
// order only. A drain that sorts before escaping is clean; exposing raw
// iteration order (map-based or otherwise channel/return-fed from a map
// range) is flagged. Import path parallelagg/internal/aggtable puts the
// package in the analyzer's scope.
package aggtable

import (
	"slices"
	"sort"
)

type Key int64

type State struct{ Count, Sum int64 }

type Partial struct {
	Key   Key
	State State
}

// table mimics a map-backed aggregation table, the shape the real
// open-addressing table replaced.
type table struct {
	m map[Key]State
}

// DrainSorted is the contract-conforming drain: materialize, sort,
// then escape. The analyzer must accept it.
func (t *table) DrainSorted() []Partial {
	out := make([]Partial, 0, len(t.m))
	for k, s := range t.m {
		out = append(out, Partial{Key: k, State: s})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	t.m = map[Key]State{}
	return out
}

// byKey is the typed comparator the slices.SortFunc drains use.
func byKey(a, b Partial) int {
	if a.Key < b.Key {
		return -1
	}
	if a.Key > b.Key {
		return 1
	}
	return 0
}

// DrainSortFunc sorts with the typed slices.SortFunc instead of the
// reflective sort.Slice; the sort still kills the map order.
func (t *table) DrainSortFunc() []Partial {
	out := make([]Partial, 0, len(t.m))
	for k, s := range t.m {
		out = append(out, Partial{Key: k, State: s})
	}
	slices.SortFunc(out, byKey)
	return out
}

// BucketsSortFunc is the sort-every-bucket idiom with slices.SortFunc,
// the shape of the dist layer's per-destination partial buffers.
func (t *table) BucketsSortFunc(n int) [][]Partial {
	out := make([][]Partial, n)
	for k, s := range t.m {
		d := int(k) % n
		out[d] = append(out[d], Partial{Key: k, State: s})
	}
	for d := range out {
		slices.SortFunc(out[d], byKey)
	}
	return out
}

// DrainUnsorted escapes the entries in map iteration order: the exact
// bug the determinism contract exists to prevent.
func (t *table) DrainUnsorted() []Partial {
	out := make([]Partial, 0, len(t.m))
	for k, s := range t.m { // want `maporder: map iteration order reaches a return of out`
		out = append(out, Partial{Key: k, State: s})
	}
	t.m = map[Key]State{}
	return out
}

// StreamUnsorted sends entries in map iteration order.
func (t *table) StreamUnsorted(ch chan Partial) {
	for k, s := range t.m { // want `maporder: map iteration order reaches a channel send`
		ch <- Partial{Key: k, State: s}
	}
}

// FirstKey leaks whichever key the runtime happens to visit first.
func (t *table) FirstKey() (Key, bool) {
	for k := range t.m { // want `maporder: map iteration order reaches a return`
		return k, true
	}
	return 0, false
}

// SortedOnOneBranchOnly is still a hazard: the unsorted path escapes.
func (t *table) SortedOnOneBranchOnly(sorted bool) []Partial {
	out := make([]Partial, 0, len(t.m))
	for k, s := range t.m { // want `maporder: map iteration order reaches a return of out`
		out = append(out, Partial{Key: k, State: s})
	}
	if sorted {
		sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	}
	return out
}

// Len-only iteration is order-invariant: clean.
func (t *table) Occupancy() int {
	n := 0
	for range t.m {
		n++
	}
	return n
}
