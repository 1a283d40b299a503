package live

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"parallelagg/internal/aggtable"
	"parallelagg/internal/tuple"
	"parallelagg/internal/workload"
)

// encodeSorted renders partials in ascending key order as wire records,
// so two results compare byte for byte.
func encodeSorted(ps []tuple.Partial) []byte {
	slices.SortFunc(ps, func(a, b tuple.Partial) int { return cmp.Compare(a.Key, b.Key) })
	out := make([]byte, len(ps)*tuple.PartialSize)
	for i, p := range ps {
		tuple.EncodePartial(out[i*tuple.PartialSize:], p)
	}
	return out
}

// sequentialOracle folds the input into one unbounded aggtable.Table and
// returns its group count and encodeSorted bytes: the result every
// algorithm must reproduce exactly.
func sequentialOracle(in []tuple.Tuple) (int, []byte) {
	oracle := aggtable.New(0)
	for _, tp := range in {
		oracle.UpdateRaw(tp)
	}
	return oracle.Len(), encodeSorted(oracle.Drain())
}

// resultBytes renders an engine result in the oracle's byte form.
func resultBytes(res *Result) []byte {
	got := make([]tuple.Partial, 0, len(res.Groups))
	for k, s := range res.Groups {
		got = append(got, tuple.Partial{Key: k, State: s})
	}
	return encodeSorted(got)
}

// TestMergeOverflowDifferential drives every merge side past its bound:
// each worker owns far more groups than TableEntries, so the merge table
// fills early and the rest of its groups fold into the overflow table.
// The two drains must be disjoint (no "produced by two workers" error)
// and together byte-identical to a sequential aggtable fold, on every
// algorithm. The scalar=true leg reruns each case tuple at a time
// (Batch 1): every fold, refusal, adaptive trigger and exchange message
// then covers a single tuple, the finest chunking the data plane has.
func TestMergeOverflowDifferential(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tuples := int64(3_000 + rng.Intn(5_000))
		groups := int64(400 + rng.Intn(800))
		var rel *workload.Relation
		if rng.Intn(2) == 0 {
			rel = workload.Uniform(4, tuples, groups, seed)
		} else {
			rel = workload.Zipf(4, tuples, groups, 1.1, seed)
		}
		in := flatten(rel)
		cfg := Config{
			Workers:      2 + rng.Intn(3),
			TableEntries: 4 + rng.Intn(28),
			Batch:        []int{0, 7, 256}[rng.Intn(3)],
		}

		wantN, want := sequentialOracle(in)

		for _, alg := range Algorithms() {
			for _, scalar := range []bool{false, true} {
				t.Run(fmt.Sprintf("seed%d/%v/scalar=%v", seed, alg, scalar), func(t *testing.T) {
					c := cfg
					if scalar {
						c.Batch = 1
					}
					res, err := Aggregate(c, in, alg)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(resultBytes(res), want) {
						t.Fatalf("%d groups differ from the sequential oracle's %d", len(res.Groups), wantN)
					}
					if alg == Shared || alg == AdaptiveShared {
						return // merge sides see little or no traffic
					}
					// A merge side that produced more groups than its
					// bound must have overflowed.
					for w, m := range res.PerWorker {
						if m.GroupsOut <= int64(c.TableEntries) {
							t.Errorf("worker %d: %d groups out, bound %d: merge side never overflowed", w, m.GroupsOut, c.TableEntries)
						}
					}
				})
			}
		}
	}
}
