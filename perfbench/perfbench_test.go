package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"parallelagg/internal/live"
	"parallelagg/internal/tuple"
	"parallelagg/sqlagg"
)

func TestQuantileKeepsTenSamplesBeyond(t *testing.T) {
	r := rng{s: 9}
	for _, pct := range []int{50, 90, 99} {
		for n := samplesFor(pct); n < samplesFor(pct)+300; n++ {
			// Latency-like: one mode per algorithm, jitter, and a slow
			// tail of queries that met a GC cycle.
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(10+5*(i%6)) * (1 + float64(r.intn(200))/1000)
				if r.intn(10) == 0 {
					xs[i] *= 1.5
				}
			}
			if _, beyond := quantile(xs, pct); beyond < minBeyond {
				t.Fatalf("p%d over %d samples leaves %d beyond, want >= %d", pct, n, beyond, minBeyond)
			}
		}
	}
}

func TestQuantileIsHarrellDavis(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if v, beyond := quantile(xs, 50); math.Abs(v-50) > 1e-9 || beyond != 50 {
		t.Errorf("median of 0..100 = %v with %d beyond, want 50 with 50", v, beyond)
	}
	if v, _ := quantile([]float64{7, 7, 7}, 90); math.Abs(v-7) > 1e-12 {
		t.Errorf("p90 of a constant = %v, want 7", v)
	}
	for _, x := range []float64{0.1, 0.5, 0.9} {
		if got := betaInc(1, 1, x); math.Abs(got-x) > 1e-12 {
			t.Errorf("I_%v(1,1) = %v, want %v", x, got, x)
		}
		if got := betaInc(2, 3, x); math.Abs(got-(6*x*x-8*x*x*x+3*x*x*x*x)) > 1e-12 {
			t.Errorf("I_%v(2,3) = %v", x, got)
		}
	}
	// Two modes of equal weight: a single order statistic would report
	// one of them; the estimate lies between and moves with the mix.
	bimodal := func(low int) float64 {
		xs := make([]float64, 100)
		for i := range xs {
			xs[i] = 20
			if i < low {
				xs[i] = 10
			}
		}
		v, _ := quantile(xs, 50)
		return v
	}
	if v49, v50, v51 := bimodal(49), bimodal(50), bimodal(51); !(v49 > v50 && v50 > v51) || math.Abs(v50-15) > 1e-9 || v49-v51 > 2 {
		t.Errorf("medians of 49/50/51 low samples = %v, %v, %v; want about 15, falling smoothly", v49, v50, v51)
	}
}

func TestClosedLoopTimesEnoughQueriesForP90(t *testing.T) {
	inst := liveInstance(genKeyed(3, 2048, 16), 2)
	var tl tally
	next := 0
	m := closedLoop(inst.target, &tl, &next, 0, samplesFor(90))
	var lat []float64
	per, _ := m.quiet(inst.cycle, samplesFor(90))
	for _, l := range per {
		lat = append(lat, l...)
	}
	if _, beyond := quantile(lat, 90); beyond < minBeyond {
		t.Fatalf("%d quiet queries leave %d beyond p90", len(lat), beyond)
	}
	if len(m.samples) != len(m.peaks)*inst.cycle {
		t.Errorf("%d queries is not a whole number of %d-algorithm cycles", len(m.samples), inst.cycle)
	}
	if tl.failed != 0 {
		t.Fatal(tl.first)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b, c := genKeyed(7, 4096, 100), genKeyed(7, 4096, 100), genKeyed(8, 4096, 100)
	if !reflect.DeepEqual(a, b) {
		t.Error("seed 7 gave two different keyed inputs")
	}
	if reflect.DeepEqual(a.tuples, c.tuples) {
		t.Error("seeds 7 and 8 gave the same keyed input")
	}
	if got := len(foldOracle(a.tuples).keys); got != 100 {
		t.Errorf("realized %d groups, want 100", got)
	}
	qa, qb, qc := genQ1(7, 1000), genQ1(7, 1000), genQ1(8, 1000)
	if !reflect.DeepEqual(qa.table.Rows, qb.table.Rows) || !reflect.DeepEqual(qa.want, qb.want) {
		t.Error("seed 7 gave two different Q1 tables")
	}
	if reflect.DeepEqual(qa.table.Rows, qc.table.Rows) {
		t.Error("seeds 7 and 8 gave the same Q1 table")
	}
}

func TestOracleNamesFirstWrongGroup(t *testing.T) {
	in := genKeyed(1, 1000, 10)
	orc := foldOracle(in.tuples)
	res, err := live.Aggregate(live.Config{Workers: 2}, in.tuples, live.TwoPhase)
	if err != nil {
		t.Fatal(err)
	}
	if err := orc.check(res.Groups); err != nil {
		t.Fatalf("correct result rejected: %v", err)
	}
	k0, k1 := orc.keys[0], orc.keys[1]
	s0, s1 := res.Groups[k0], res.Groups[k1]
	wrong := s1
	wrong.Max++
	res.Groups[k1] = wrong
	delete(res.Groups, k0)
	if err := orc.check(res.Groups); err == nil || !strings.Contains(err.Error(), "group "+itoa(k0)+" missing") {
		t.Errorf("check = %v, want it to name missing group %d", err, k0)
	}
	res.Groups[k0] = s0
	if err := orc.check(res.Groups); err == nil || !strings.Contains(err.Error(), "group "+itoa(k1)+":") {
		t.Errorf("check = %v, want it to name group %d", err, k1)
	}
	res.Groups[k1] = s1
	extra := tuple.Key(0)
	for orc.groups[extra] != (agg{}) {
		extra++
	}
	res.Groups[extra] = tuple.NewState(0)
	if err := orc.check(res.Groups); err == nil || !strings.Contains(err.Error(), "group "+itoa(extra)+" is not in the input") {
		t.Errorf("check = %v, want it to name extra group %d", err, extra)
	}
}

func itoa(k tuple.Key) string { return strconv.FormatUint(uint64(k), 10) }

func TestQ1OracleMatchesExecute(t *testing.T) {
	q := genQ1(5, 5000)
	res, err := sqlagg.Execute(q.table, q.query, live.Config{Workers: 2}, live.AdaptiveTwoPhase)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRows(q.want, res.Rows); err != nil {
		t.Fatalf("Execute disagrees with the row-by-row oracle: %v", err)
	}
	if len(q.want) != 6 {
		t.Errorf("%d groups, want 6", len(q.want))
	}
	res.Rows[2][4] = sqlagg.IntVal(res.Rows[2][4].Int + 1)
	want := "group (" + q.want[2][0].Str + "," + q.want[2][1].Str + ")"
	if err := checkRows(q.want, res.Rows); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("checkRows = %v, want it to name %s", err, want)
	}
}

func TestScannedSumsToInputRows(t *testing.T) {
	in := genKeyed(2, 50_000, 5000)
	for _, w := range []int{2, 3} {
		for _, alg := range live.Algorithms() {
			res, err := live.Aggregate(live.Config{Workers: w, TableEntries: 512}, in.tuples, alg)
			if err != nil {
				t.Fatal(err)
			}
			var scanned int64
			for _, m := range res.PerWorker {
				scanned += m.Scanned
			}
			if scanned != int64(len(in.tuples)) {
				t.Errorf("%v with %d workers: Scanned sums to %d, want %d", alg, w, scanned, len(in.tuples))
			}
		}
	}
}

func TestCoveredCountsOverlapOnce(t *testing.T) {
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 50, End: 60}, {Start: 90, End: 200}}
	if got := covered(0, 100, kids); got != 30+10+10 {
		t.Errorf("covered = %d, want 50", got)
	}
	if got := selfTime(span{Start: 0, End: 100}, kids); got != 50 {
		t.Errorf("selfTime = %d, want 50", got)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(perLayer(), endToEnd...) {
		if !metricName.MatchString(d.name) || !metricUnit.MatchString(d.unit) {
			t.Errorf("metric %q with unit %q is not a valid name and unit", d.name, d.unit)
		}
		if d.better != "higher" && d.better != "lower" {
			t.Errorf("metric %q: better is %q", d.name, d.better)
		}
		if seen[d.name] {
			t.Errorf("metric %q defined twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json in step with the metrics
// and workloads this program defines.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer())
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// withWorkload registers w for the length of the test.
func withWorkload(t *testing.T, w workload) {
	saved := workloads
	workloads = append(append([]workload(nil), workloads...), w)
	t.Cleanup(func() { workloads = saved })
}

type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

func runCmd(t *testing.T, args ...string) (int, result, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line %q is not the result: %v (stderr %s)", lines[len(lines)-1], err, errOut.String())
	}
	return code, r, errOut.String()
}

func TestRunPrintsEveryMetric(t *testing.T) {
	withWorkload(t, workload{name: "tiny-live", make: func(seed uint64, workers int) *instance {
		return liveInstance(genKeyed(seed, 8192, 64), workers)
	}})
	withWorkload(t, workload{name: "tiny-dist", make: func(seed uint64, workers int) *instance {
		return distInstance(genKeyed(seed, 8192, 512), workers)
	}})
	withWorkload(t, workload{name: "tiny-sql", make: func(seed uint64, workers int) *instance {
		return sqlInstance(genQ1(seed, 2048), workers)
	}})
	for _, w := range []string{"tiny-live", "tiny-dist", "tiny-sql"} {
		for trace, defs := range [][]metricDef{endToEnd, perLayer()} {
			code, r, stderr := runCmd(t, "--workload", w, "--seed", "4", "--seconds", "1", "--trace", strconv.Itoa(trace))
			if code != 0 || !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Fatalf("%s trace=%d: exit %d, result %+v, stderr %s", w, trace, code, r, stderr)
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w, trace, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := r.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%d: metric %s missing or wrong unit (%+v)", w, trace, d.name, m)
				}
			}
			if trace == 1 {
				layer := map[string]string{"tiny-live": "live.scan_ms", "tiny-dist": "dist.scan_ms", "tiny-sql": "query.self_ms"}[w]
				if r.Metrics[layer].Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", w, layer, r.Metrics[layer].Value)
				}
			}
		}
	}
}

// plantedQuerier answers like liveQuerier but corrupts one group of one
// query's result.
type plantedQuerier struct {
	*liveQuerier
	bad int
}

func (q plantedQuerier) run(i int, o *observed) (func() error, error) {
	if i != q.bad {
		return q.liveQuerier.run(i, o)
	}
	res, err := live.Aggregate(q.cfg, q.in, liveAlg(i))
	if err != nil {
		return nil, err
	}
	k := q.orc.keys[len(q.orc.keys)/2]
	s := res.Groups[k]
	s.Sum++
	res.Groups[k] = s
	return func() error { return q.orc.check(res.Groups) }, nil
}

func TestPlantedWrongGroupFailsTheRun(t *testing.T) {
	var key tuple.Key
	withWorkload(t, workload{name: "planted", make: func(seed uint64, workers int) *instance {
		inst := liveInstance(genKeyed(seed, 4096, 64), workers)
		inst.q = plantedQuerier{liveQuerier: inst.q.(*liveQuerier), bad: 3 * inst.cycle}
		key = inst.orc.keys[len(inst.orc.keys)/2]
		return inst
	}})
	code, r, stderr := runCmd(t, "--workload", "planted", "--seed", "1", "--seconds", "1", "--trace", "0")
	if code == 0 || r.Correct || r.Failed != 1 {
		t.Fatalf("exit %d, result %+v; want a non-zero exit and exactly one failed query", code, r)
	}
	if !strings.Contains(stderr, "group "+itoa(key)+":") {
		t.Errorf("stderr %q does not name the wrong group %d", stderr, key)
	}
	var tl tally
	tl.record("q", func() error { return nil }, nil)
	tl.record("q", func() error { return os.ErrInvalid }, nil)
	if tl.share() != 0.5 {
		t.Errorf("failed_share = %v, want 0.5", tl.share())
	}
}

func TestBadArgumentsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sql-q1", "--trace", "2"},
		{"--workload", "sql-q1", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d with output %q, want 2 and none", args, code, out.String())
		}
	}
}

func TestQuietKeepsLeastStolenQueriesBalanced(t *testing.T) {
	m := timed{samples: []sample{
		{alg: 0, ms: 1, steal: 0}, {alg: 1, ms: 2, steal: 3},
		{alg: 0, ms: 3, steal: 0}, {alg: 1, ms: 4, steal: 0},
		{alg: 0, ms: 5, steal: 1}, {alg: 1, ms: 6, steal: 0},
		{alg: 0, ms: 7, steal: 0}, {alg: 1, ms: 8, steal: 2},
	}}
	for _, c := range []struct {
		need int
		want [][]float64
	}{
		{4, [][]float64{{1, 3}, {4, 6}}},
		{6, [][]float64{{1, 3, 5}, {4, 6, 8}}},
		{100, [][]float64{{1, 3, 5, 7}, {2, 4, 6, 8}}},
	} {
		got, relaxed := m.quiet(2, c.need)
		if !reflect.DeepEqual(got, c.want) || relaxed != (c.need > 4) {
			t.Errorf("quiet(need %d) = %v, %v; want %v, %v", c.need, got, relaxed, c.want, c.need > 4)
		}
	}
}
