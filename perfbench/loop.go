package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"parallelagg/internal/live"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// hardStop ends a closed loop even before it has enough samples, so a
// pathologically slow program still exits well inside three minutes.
const hardStop = 120 * time.Second

// tally counts every result the benchmark checks: timed and warm-up
// queries and the layer probes' own outputs.
type tally struct {
	attempted, failed int
	first             error
}

// record counts one attempt. err is the call's own error; check, run only
// when err is nil, compares its output with the oracle.
func (t *tally) record(what string, check func() error, err error) {
	t.attempted++
	if err == nil {
		err = check()
	}
	if err != nil {
		t.failed++
		if t.first == nil {
			t.first = fmt.Errorf("%s: %w", what, err)
		}
	}
}

func (t *tally) share() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// quantile is the Harrell–Davis estimate of the pct-th percentile
// (0 < pct < 100): a mean of all order statistics weighted by a
// Beta((n+1)p, (n+1)(1-p)) distribution. The latencies are multimodal, one
// mode per algorithm and another per GC cycle a query meets, and a single
// order statistic jumps whenever the percentile falls between two modes;
// this estimate moves smoothly instead. It also returns how many samples
// lie beyond the estimate.
func quantile(samples []float64, pct int) (float64, int) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	p := float64(pct) / 100
	a, b := p*float64(n+1), (1-p)*float64(n+1)
	var est, prev float64
	for i := 1; i <= n; i++ {
		cur := betaInc(a, b, float64(i)/float64(n))
		est += (cur - prev) * s[i-1]
		prev = cur
	}
	return est, n - sort.Search(n, func(i int) bool { return s[i] > est })
}

// samplesFor is the smallest sample count whose pct-th percentile estimate
// sits at least minBeyond+1 ranks below the top, which leaves minBeyond
// samples beyond it even when the weighting pulls the estimate up a rank.
func samplesFor(pct int) int {
	return ((minBeyond+2)*100+(100-pct)-1)/(100-pct) - 1
}

// betaInc is the regularized incomplete beta function I_x(a, b),
// evaluated by its continued fraction.
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaFrac(a, b, x) / a
	}
	return 1 - front*betaFrac(b, a, 1-x)/b
}

// betaFrac evaluates the continued fraction of I_x(a, b) by the modified
// Lentz method.
func betaFrac(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 1000; m++ {
		num := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		num = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		if math.Abs(d*c-1) < 1e-15 {
			break
		}
	}
	return h
}

// allocBytes reads the process's cumulative heap allocation without
// stopping the world.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// timed is what a closed loop measured.
type timed struct {
	samples []sample
	alloc   uint64    // heap bytes allocated during timed queries
	peaks   []float64 // peak RSS of each algorithm cycle, MiB
}

// sample is one timed query.
type sample struct {
	alg   int     // position in the algorithm cycle
	ms    float64 // latency
	steal uint64  // CPU ticks the hypervisor gave to other guests meanwhile
}

// quiet returns, per algorithm, the latencies of the queries that lost
// the least CPU time to steal, cut to the same count for every algorithm
// so that none weighs more than another. The steal limit starts at the
// least any query saw (normally none) and rises until at least need
// queries qualify; relaxed reports that it had to rise. A vCPU the
// hypervisor takes away stalls whichever
// worker runs on it, and a parallel query waits for its slowest worker,
// so a query that lost CPU time to steal times the host rather than the
// program. On a host without steal every query is quiet.
func (m *timed) quiet(cycle, need int) (per [][]float64, relaxed bool) {
	limits := make([]uint64, 0, len(m.samples))
	for _, s := range m.samples {
		limits = append(limits, s.steal)
	}
	sort.Slice(limits, func(i, j int) bool { return limits[i] < limits[j] })
	for i, limit := range limits {
		if i > 0 && limit == limits[i-1] {
			continue
		}
		per = make([][]float64, cycle)
		for _, s := range m.samples {
			if s.steal <= limit {
				per[s.alg] = append(per[s.alg], s.ms)
			}
		}
		k := len(per[0])
		for _, l := range per {
			k = min(k, len(l))
		}
		for a := range per {
			per[a] = per[a][:k]
		}
		if k*cycle >= need {
			return per, limit > limits[0]
		}
	}
	return per, len(limits) > 0 && limits[len(limits)-1] > limits[0]
}

// enough reports whether the latencies hold at least need samples with
// minBeyond of them beyond their p90 estimate.
func enough(per [][]float64, need int) bool {
	var pool []float64
	for _, l := range per {
		pool = append(pool, l...)
	}
	_, beyond := quantile(pool, 90)
	return len(pool) >= need && beyond >= minBeyond
}

func (m *timed) latencies() []float64 {
	lat := make([]float64, len(m.samples))
	for i, s := range m.samples {
		lat[i] = s.ms
	}
	return lat
}

// closedLoop runs queries one after another from a single caller, each
// starting when the previous result has returned, from query index next.
// It stops after a whole algorithm cycle once budget has passed and
// minQueries queries, minBeyond of them beyond p90, lost the least CPU
// time to steal; while steal keeps that from happening it runs on, up to
// 2.5 times the budget. Each result is checked after its timer stops.
func closedLoop(tg target, t *tally, next *int, budget time.Duration, minQueries int) timed {
	var m timed
	windows := resetPeakRSS()
	start := time.Now()
	for {
		i := *next
		*next++
		_, steal0 := cpuTicks()
		a0 := allocBytes()
		s := time.Now()
		check, err := tg.q.run(i, nil)
		d := time.Since(s)
		m.alloc += allocBytes() - a0
		_, steal1 := cpuTicks()
		m.samples = append(m.samples, sample{alg: i % tg.cycle, ms: float64(d.Nanoseconds()) / 1e6, steal: steal1 - steal0})
		t.record(fmt.Sprintf("query %d (%s)", i, tg.q.alg(i)), check, err)
		if *next%tg.cycle != 0 {
			continue
		}
		m.peaks = append(m.peaks, peakRSSMiB())
		if windows {
			resetPeakRSS()
		}
		switch el := time.Since(start); {
		case el >= hardStop || el >= budget*5/2 && enough([][]float64{m.latencies()}, minQueries):
			return m
		case el < budget:
			continue
		}
		if per, relaxed := m.quiet(tg.cycle, minQueries); !relaxed && enough(per, minQueries) {
			return m
		}
	}
}

// tracedQuery is one query of a traced run: its latency, the benchmark's
// span around the call and the program's spans attached beneath it.
type tracedQuery struct {
	alg      string
	ms       float64
	span     span
	children []span
	seen     *observed
}

// loopTrace is what a traced closed loop measured.
type loopTrace struct {
	queries               []tracedQuery
	n                     int     // queries run, traced or not
	tracedRate, plainRate float64 // rows per second of each half
}

// tracedLoop is closedLoop for a traced run. Whole algorithm cycles
// alternate between traced and untraced, so both halves see every
// algorithm; with every set, all cycles are traced.
func tracedLoop(tg target, rec *recorder, t *tally, next *int, budget time.Duration, every bool) loopTrace {
	var lt loopTrace
	var tBusy, pBusy time.Duration
	var tRows, pRows int
	start := time.Now()
	for {
		el := time.Since(start)
		if (el >= budget && *next%tg.cycle == 0 && len(lt.queries) >= 3*tg.cycle) || el >= hardStop {
			break
		}
		i := *next
		*next++
		lt.n++
		what := fmt.Sprintf("query %d (%s)", i, tg.q.alg(i))
		if !every && (i/tg.cycle)%2 == 0 {
			s := time.Now()
			check, err := tg.q.run(i, nil)
			pBusy += time.Since(s)
			pRows += tg.rows
			t.record(what, check, err)
			continue
		}
		o := &observed{tracer: rec.tracer()}
		s, s0 := time.Now(), rec.now()
		check, err := tg.q.run(i, o)
		d, s1 := time.Since(s), rec.now()
		tBusy += d
		tRows += tg.rows
		id := rec.add(0, i, tg.call+"/"+tg.q.alg(i), s0, s1)
		tq := tracedQuery{alg: tg.q.alg(i), ms: float64(d.Nanoseconds()) / 1e6, span: rec.spans[id-1], seen: o}
		tq.children = rec.adopt(id, i, tg.layer, o.tracer)
		lt.queries = append(lt.queries, tq)
		t.record(what, check, err)
	}
	lt.tracedRate, lt.plainRate = rate(tRows, tBusy), rate(pRows, pBusy)
	return lt
}

func rate(rows int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(rows) / d.Seconds()
}

// spanMs is the mean duration in ms of the program spans of one kind in a
// traced query, over nodes or workers, as a median over the queries.
func spanMs(qs []tracedQuery, name string) float64 {
	var per []float64
	for _, q := range qs {
		var sum int64
		n := 0
		for _, c := range q.children {
			if spanKind(c.Name) == name {
				sum += c.dur()
				n++
			}
		}
		if n > 0 {
			per = append(per, float64(sum)/float64(n)/1e6)
		}
	}
	return median(per)
}

// spanKind strips the layer prefix and node index: "live.scan[1]" → "scan".
func spanKind(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		name = name[i+1:]
	}
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	return name
}

// algP50 is the median latency of the traced queries that ran alg.
func algP50(qs []tracedQuery, alg string) float64 {
	var ms []float64
	for _, q := range qs {
		if q.alg == alg {
			ms = append(ms, q.ms)
		}
	}
	return median(ms)
}

// liveMetrics derives the live layer's metrics from traced live.Aggregate
// calls over rows input rows each.
func liveMetrics(vals map[string]float64, qs []tracedQuery, rows int) {
	for _, a := range live.Algorithms() {
		vals["live."+a.String()+".query_ms_p50"] = algP50(qs, a.String())
	}
	vals["live.scan_ms"] = spanMs(qs, "scan")
	vals["live.merge_ms"] = spanMs(qs, "merge")
	var tails []float64
	var routed, partials, spilled, switched int64
	for _, q := range qs {
		var scanEnd, mergeEnd int64
		for _, c := range q.children {
			switch spanKind(c.Name) {
			case "scan":
				scanEnd = max(scanEnd, c.End)
			case "merge":
				mergeEnd = max(mergeEnd, c.End)
			}
		}
		tails = append(tails, float64(mergeEnd-scanEnd)/1e6)
		for _, w := range q.seen.workers {
			routed += w.Routed
			partials += w.PartialsSent
			spilled += w.Spilled
		}
		switched += int64(q.seen.switched)
	}
	vals["live.merge_tail_ms"] = median(tails)
	if n := float64(len(qs)); n > 0 {
		total := n * float64(rows)
		vals["live.routed_per_row"] = float64(routed) / total
		vals["live.partials_per_row"] = float64(partials) / total
		vals["live.spilled_per_row"] = float64(spilled) / total
		vals["live.switched_workers"] = float64(switched) / n
	}
}

// distMetrics derives the dist layer's metrics from the traced run of the
// dist workload. Wire counts cover every query of the loop.
func distMetrics(vals map[string]float64, lt loopTrace, inst *instance) {
	for _, a := range distAlgs {
		vals["dist."+a.String()+".query_ms_p50"] = algP50(lt.queries, a.String())
	}
	vals["dist.dial_ms"] = spanMs(lt.queries, "dial")
	vals["dist.scan_ms"] = spanMs(lt.queries, "scan")
	vals["dist.merge_ms"] = spanMs(lt.queries, "merge")
	var raw, partials int64
	for _, q := range lt.queries {
		for _, nr := range q.seen.nodes {
			raw += nr.RawSent
			partials += nr.PartialsSent
		}
	}
	if len(lt.queries) > 0 {
		total := float64(len(lt.queries)) * float64(inst.rows)
		vals["dist.raw_sent_per_row"] = float64(raw) / total
		vals["dist.partials_sent_per_row"] = float64(partials) / total
	}
	all := float64(lt.n) * float64(inst.rows)
	vals["dist.write_calls_per_row"] = float64(inst.wire.writes.Load()) / all
	vals["dist.wire_bytes_per_row"] = float64(inst.wire.bytes.Load()) / all
}

// queryMetrics splits each traced sqlagg.Execute into the time its live
// passes cover and the query layer's self time.
func queryMetrics(vals map[string]float64, qs []tracedQuery) {
	var self, engine, passes []float64
	for _, q := range qs {
		engine = append(engine, float64(covered(q.span.Start, q.span.End, q.children))/1e6)
		self = append(self, float64(selfTime(q.span, q.children))/1e6)
		n := 0
		for _, c := range q.children {
			if c.Name == "live.scan[0]" {
				n++
			}
		}
		passes = append(passes, float64(n))
	}
	vals["query.self_ms"] = median(self)
	vals["query.engine_ms"] = median(engine)
	vals["query.engine_passes"] = median(passes)
}
