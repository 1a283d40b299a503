// Command perfbench is the repository's benchmark: it runs one named
// workload against the aggregation layers, checks every result against an
// oracle of its own, and prints the metrics as one JSON object on the last
// line of its output.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics, measured with tracing off.
// --trace 1 is a separate traced run that prints the per-layer metrics and
// writes its spans to -spans-dir. Load is one caller in a closed loop:
// each query is one call, and the next starts when the result returns.
// README.md in this directory lists the workloads, the metrics and which
// end-to-end metric each layer metric should move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"parallelagg/internal/live"
)

// setupRuns is how often a run sets the workload up; setup_s is the median.
const setupRuns = 3

type metricDef struct{ name, unit, better string }

var endToEnd = []metricDef{
	{"rows_per_s", "1/s", "higher"},
	{"query_ms_p50", "ms", "lower"},
	{"query_ms_p90", "ms", "lower"},
	{"alloc_bytes_per_row", "B/row", "lower"},
	{"peak_rss_mib", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer lists the traced run's metrics. A workload that never calls a
// layer reports that layer's metrics as 0.
func perLayer() []metricDef {
	ms := []metricDef{
		{"tuple.fold_ns_per_row", "ns", "lower"},
		{"tuple.batch_append_ns_per_row", "ns", "lower"},
		{"tuple.raw_codec_ns_per_row", "ns", "lower"},
		{"tuple.partial_codec_ns_per_row", "ns", "lower"},
		{"tuple.rawcol_codec_ns_per_row", "ns", "lower"},
		{"tuple.partialcol_codec_ns_per_row", "ns", "lower"},
		{"aggtable.fold_ns_per_row", "ns", "lower"},
		{"aggtable.refused_share", "share", "lower"},
		{"aggtable.drain_ns_per_group", "ns", "lower"},
		{"aggtable.refill_ns_per_row", "ns", "lower"},
		{"aggtable.merge_ns_per_partial", "ns", "lower"},
		{"aggtable.drain_refill_merge_ms", "ms", "lower"},
		{"aggtable.shared_fold_ns_per_row", "ns", "lower"},
		{"aggtable.shared_contended_share", "share", "lower"},
	}
	for _, a := range live.Algorithms() {
		ms = append(ms, metricDef{"live." + a.String() + ".query_ms_p50", "ms", "lower"})
	}
	ms = append(ms,
		metricDef{"live.scan_ms", "ms", "lower"},
		metricDef{"live.merge_ms", "ms", "lower"},
		metricDef{"live.merge_tail_ms", "ms", "lower"},
		metricDef{"live.routed_per_row", "count/row", "lower"},
		metricDef{"live.partials_per_row", "count/row", "lower"},
		metricDef{"live.spilled_per_row", "count/row", "lower"},
		metricDef{"live.switched_workers", "count", "lower"},
	)
	for _, a := range distAlgs {
		ms = append(ms, metricDef{"dist." + a.String() + ".query_ms_p50", "ms", "lower"})
	}
	return append(ms,
		metricDef{"dist.dial_ms", "ms", "lower"},
		metricDef{"dist.scan_ms", "ms", "lower"},
		metricDef{"dist.merge_ms", "ms", "lower"},
		metricDef{"dist.raw_sent_per_row", "count/row", "lower"},
		metricDef{"dist.partials_sent_per_row", "count/row", "lower"},
		metricDef{"dist.write_calls_per_row", "count/row", "lower"},
		metricDef{"dist.wire_bytes_per_row", "B/row", "lower"},
		metricDef{"query.self_ms", "ms", "lower"},
		metricDef{"query.engine_ms", "ms", "lower"},
		metricDef{"query.engine_passes", "count", "lower"},
		metricDef{"trace.overhead_share", "share", "lower"},
	)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "seconds the closed loop measures")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: traced run, per-layer metrics")
	commit := fs.String("commit", "unknown", "commit the program was built from, for the environment stamp")
	spansDir := fs.String("spans-dir", "", "directory a traced run writes its spans to (empty: not written)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err == nil && (*seconds < 1 || *traced < 0 || *traced > 1) {
		err = fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}

	out := bufio.NewWriter(stdout)
	defer out.Flush()
	workers := runtime.NumCPU()
	stampEnv(out, *commit, workers)

	var t tally
	inst, setupS := setUp(w, *seed, workers, &t)
	fmt.Fprintf(out, "# workload %s seed=%d rows=%d groups=%d workers=%d load=closed loop, 1 caller\n",
		w.name, *seed, inst.rows, inst.groups, workers)
	budget := time.Duration(*seconds) * time.Second

	var defs []metricDef
	var vals map[string]float64
	if *traced == 0 {
		defs, vals = endToEnd, measureEndToEnd(out, inst, &t, budget)
		vals["setup_s"] = setupS
	} else {
		rec := newRecorder()
		defs, vals = perLayer(), measureLayers(out, inst, &t, budget, workers, rec)
		if *spansDir != "" {
			path := filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
			if err := rec.write(path); err != nil {
				fmt.Fprintln(stderr, "perfbench: writing spans:", err)
				return 1
			}
			fmt.Fprintf(out, "# spans: %d written to %s\n", len(rec.spans), path)
		}
	}
	fmt.Fprintf(out, "# failed_share=%g (%d of %d checked results)\n", t.share(), t.failed, t.attempted)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		fmt.Fprintf(out, "# %s = %.6g %s\n", d.name, vals[d.name], d.unit)
		result.Metrics[d.name] = value{Value: vals[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if err := out.Flush(); err != nil {
		fmt.Fprintln(stderr, "perfbench: writing the result:", err)
		return 1
	}
	if t.failed > 0 {
		fmt.Fprintln(stderr, "perfbench: wrong result:", t.first)
		return 1
	}
	return 0
}

// stampEnv prints what every result depends on besides the code.
func stampEnv(w io.Writer, commit string, nproc int) {
	fmt.Fprintf(w, "# env go=%s nproc=%d gomaxprocs=%d commit=%s cpu=%q\n",
		runtime.Version(), nproc, runtime.GOMAXPROCS(0), commit, cpuModel())
	if nproc == 2 {
		fmt.Fprintln(w, "# note: this host has 2 vCPUs, which caps every parallel result at two workers")
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// cpuTicks reads the host's total and stolen CPU time from /proc/stat, in
// clock ticks. Steal is time the hypervisor gave this VM's vCPUs to
// someone else; a run with much of it measured a contended host.
func cpuTicks() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64) // the kernel writes plain counters; a field it does not counts as 0
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// resetPeakRSS starts a new peak-RSS window. It reports false where the
// kernel cannot reset the high-water mark.
func resetPeakRSS() bool { return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil }

// peakRSSMiB is the process's resident-memory high-water mark since the
// last resetPeakRSS, or since it started.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// setUp generates the inputs, folds the oracle and runs two warm-up
// cycles of queries, setupRuns times, and returns the last instance with
// the median set-up time in seconds. Warm-up results are checked too.
func setUp(w workload, seed uint64, workers int, t *tally) (*instance, float64) {
	var inst *instance
	secs := make([]float64, setupRuns)
	for r := range secs {
		inst = nil
		runtime.GC()
		s := time.Now()
		inst = w.make(seed, workers)
		for i := 0; i < 2*inst.cycle; i++ {
			check, err := inst.q.run(i, nil)
			t.record(fmt.Sprintf("warm-up query %d (%s)", i, inst.q.alg(i)), check, err)
		}
		secs[r] = time.Since(s).Seconds()
	}
	return inst, median(secs)
}

// measureEndToEnd runs the untraced closed loop.
func measureEndToEnd(out io.Writer, inst *instance, t *tally, budget time.Duration) map[string]float64 {
	if inst.wire != nil {
		inst.wire.reset()
	}
	next := 0
	total0, steal0 := cpuTicks()
	need := samplesFor(90)
	m := closedLoop(inst.target, t, &next, budget, need)
	total1, steal1 := cpuTicks()
	per, _ := m.quiet(inst.cycle, need)
	var pool []float64
	var cycleMs float64
	for _, l := range per {
		pool = append(pool, l...)
		ms, _ := quantile(l, 50)
		cycleMs += ms
	}
	p50, _ := quantile(pool, 50)
	p90, beyond := quantile(pool, 90)
	rows := float64(inst.rows) * float64(len(m.samples))
	if total1 > total0 {
		fmt.Fprintf(out, "# cpu steal during the timed loop: %.1f%% of host CPU time\n", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	fmt.Fprintf(out, "# timed queries=%d; quiet queries used=%d (%d per algorithm), %d beyond p90\n",
		len(m.samples), len(pool), len(per[0]), beyond)
	if inst.wire != nil {
		fmt.Fprintf(out, "# wire_bytes_per_row = %.6g B/row\n", float64(inst.wire.bytes.Load())/rows)
	}
	vals := map[string]float64{
		"query_ms_p50":        p50,
		"query_ms_p90":        p90,
		"alloc_bytes_per_row": float64(m.alloc) / rows,
		"peak_rss_mib":        median(m.peaks),
	}
	if cycleMs > 0 {
		vals["rows_per_s"] = float64(inst.rows*inst.cycle) / (cycleMs / 1e3)
	}
	return vals
}

// measureLayers is the traced run. Half the budget goes to the workload's
// own queries, alternating traced and untraced cycles; the rest to probes
// of the tuple and aggtable layers on the workload's tuple stream, and of
// the live engine where the workload does not call it directly.
func measureLayers(out io.Writer, inst *instance, t *tally, budget time.Duration, workers int, rec *recorder) map[string]float64 {
	vals := map[string]float64{}
	if inst.wire != nil {
		inst.wire.reset()
	}
	next := 0
	lt := tracedLoop(inst.target, rec, t, &next, budget/2, false)
	fmt.Fprintf(out, "# traced queries=%d of %d\n", len(lt.queries), lt.n)
	if lt.plainRate > 0 {
		vals["trace.overhead_share"] = 1 - lt.tracedRate/lt.plainRate
	}

	liveQs, liveRows := lt.queries, inst.rows
	switch inst.q.(type) {
	case *distQuerier:
		distMetrics(vals, lt, inst)
	case *sqlQuerier:
		queryMetrics(vals, lt.queries)
	}
	if _, direct := inst.q.(*liveQuerier); !direct {
		cfg := live.Config{Workers: workers, TableEntries: tableEntries}
		liveQs = tracedLoop(liveTarget(cfg, inst.in.tuples, inst.orc), rec, t, &next, budget/8, true).queries
		liveRows = len(inst.in.tuples)
	}
	liveMetrics(vals, liveQs, liveRows)
	for k, v := range tupleProbes(inst.in, inst.orc, rec, 3*budget/16, t) {
		vals[k] = v
	}
	for k, v := range tableProbes(inst.in, inst.orc, workers, rec, 3*budget/16, t) {
		vals[k] = v
	}
	return vals
}
