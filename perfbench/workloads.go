package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"parallelagg/internal/dist"
	"parallelagg/internal/live"
	"parallelagg/internal/trace"
	"parallelagg/internal/tuple"
	"parallelagg/sqlagg"
)

// tableEntries is the per-worker hash-table bound of every live and dist
// workload.
const tableEntries = 8192

// A workload is one named set of inputs and the queries run over it.
type workload struct {
	name string
	why  string
	make func(seed uint64, workers int) *instance
}

// instance is a workload's generated input, ready to query.
type instance struct {
	target
	groups int   // distinct groups in the input (realized, not planned)
	in     keyed // the tuple stream the layer probes fold
	orc    *oracle
	wire   *wireCount // TCP traffic; nil unless the workload runs dist
}

// target is what a closed loop queries.
type target struct {
	q     querier
	cycle int    // queries per algorithm cycle
	rows  int    // input rows one query aggregates
	call  string // the function a query calls, naming its span
	layer string // the layer whose Tracer spans a query records
}

// querier runs one workload's queries. Query i uses algorithm i mod the
// cycle length. run returns the check of the result against the oracle,
// which the caller invokes outside the timed interval. A non-nil observed
// asks run to install the program's Tracer and to report the counts its
// results expose.
type querier interface {
	run(i int, o *observed) (check func() error, err error)
	alg(i int) string
}

// observed carries what one traced query exposes.
type observed struct {
	tracer   *trace.Tracer
	workers  []live.WorkerMetrics
	switched int
	nodes    []*dist.NodeResult
}

var workloads = []workload{
	{
		name: "live-lowcard",
		why:  "1,024 scattered groups fit the table bound and the L2 cache: probe-hit folds, scan batching and Shared stripe contention do the work, drain and merge almost none",
		make: func(seed uint64, workers int) *instance { return liveInstance(genKeyed(seed, 2<<20, 1024), workers) },
	},
	{
		name: "live-highcard",
		why:  "64 Ki groups over 128 Ki rows exceed the per-worker bound 8x: 2P drains, A-2P switches and Shared refuses, so insert, drain and merge do the work",
		make: func(seed uint64, workers int) *instance {
			return liveInstance(genKeyed(seed, 128<<10, 64<<10), workers)
		},
	},
	{
		name: "dist-loopback",
		why:  "the only workload where wire codecs, framing, TCP and the dist merge loop run; raw and partial frames both flow and A-2P switches mid-run",
		make: func(seed uint64, workers int) *instance { return distInstance(genKeyed(seed, 256<<10, 13107), workers) },
	},
	{
		name: "sql-q1",
		why:  "TPC-D Q1 shape with 6 groups: the query layer's key dictionary, per-column passes and result assembly dominate, live and aggtable do little",
		make: func(seed uint64, workers int) *instance { return sqlInstance(genQ1(seed, 64<<10), workers) },
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// liveQuerier runs live.Aggregate, cycling through all six algorithms.
type liveQuerier struct {
	cfg live.Config
	in  []tuple.Tuple
	orc *oracle
}

func liveInstance(in keyed, workers int) *instance {
	orc := foldOracle(in.tuples)
	cfg := live.Config{Workers: workers, TableEntries: tableEntries}
	return &instance{target: liveTarget(cfg, in.tuples, orc), groups: len(orc.keys), in: in, orc: orc}
}

func liveTarget(cfg live.Config, in []tuple.Tuple, orc *oracle) target {
	return target{q: &liveQuerier{cfg: cfg, in: in, orc: orc}, cycle: len(live.Algorithms()), rows: len(in),
		call: "live.Aggregate", layer: "live"}
}

func (q *liveQuerier) alg(i int) string { return liveAlg(i).String() }

func liveAlg(i int) live.Algorithm {
	algs := live.Algorithms()
	return algs[i%len(algs)]
}

func (q *liveQuerier) run(i int, o *observed) (func() error, error) {
	cfg := q.cfg
	if o != nil {
		cfg.Tracer = o.tracer
	}
	res, err := live.Aggregate(cfg, q.in, liveAlg(i))
	if err != nil {
		return nil, err
	}
	if o != nil {
		o.workers = append(o.workers, res.PerWorker...)
		o.switched += res.Switched
	}
	return func() error { return q.orc.check(res.Groups) }, nil
}

var distAlgs = []dist.Algorithm{dist.TwoPhase, dist.Repartitioning, dist.AdaptiveTwoPhase, dist.AdaptiveRepartitioning}

// distQuerier runs a loopback cluster of one node per worker, cycling
// through the four dist algorithms. Untraced queries go through
// dist.RunConfigured; traced ones launch the nodes with dist.RunNode, the
// same steps, because only RunNode returns the per-node counts.
type distQuerier struct {
	parts [][]tuple.Tuple
	cfg   dist.Config
	orc   *oracle
}

func distInstance(in keyed, workers int) *instance {
	orc := foldOracle(in.tuples)
	wire := &wireCount{}
	cfg := dist.Config{TableEntries: tableEntries, Dial: wire.dial, WrapListener: wire.wrap}
	tg := target{q: &distQuerier{parts: split(in.tuples, workers), cfg: cfg, orc: orc}, cycle: len(distAlgs),
		rows: len(in.tuples), call: "dist.RunNode", layer: "dist"}
	return &instance{target: tg, groups: len(orc.keys), in: in, orc: orc, wire: wire}
}

// split cuts ts into n contiguous parts.
func split(ts []tuple.Tuple, n int) [][]tuple.Tuple {
	parts := make([][]tuple.Tuple, n)
	for i := range parts {
		parts[i] = ts[i*len(ts)/n : (i+1)*len(ts)/n]
	}
	return parts
}

func (q *distQuerier) alg(i int) string { return distAlgs[i%len(distAlgs)].String() }

func (q *distQuerier) run(i int, o *observed) (func() error, error) {
	cfg := q.cfg
	cfg.Algorithm = distAlgs[i%len(distAlgs)]
	if o == nil {
		res, err := dist.RunConfigured(q.parts, cfg)
		if err != nil {
			return nil, err
		}
		return func() error { return q.orc.check(res.Groups) }, nil
	}
	cfg.Tracer = o.tracer
	groups, nodes, err := runNodes(q.parts, cfg)
	if err != nil {
		return nil, err
	}
	o.nodes = append(o.nodes, nodes...)
	return func() error { return q.orc.check(groups) }, nil
}

// runNodes launches one dist.RunNode per part on loopback and unions the
// groups the nodes own.
func runNodes(parts [][]tuple.Tuple, template dist.Config) (map[tuple.Key]tuple.AggState, []*dist.NodeResult, error) {
	n := len(parts)
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, nil, fmt.Errorf("listen: %w", err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	results := make([]*dist.NodeResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		i := i
		go func() {
			defer wg.Done()
			cfg := template
			cfg.ID, cfg.Addrs = i, addrs
			results[i], errs[i] = dist.RunNode(lns[i], cfg, parts[i])
		}()
	}
	wg.Wait()
	groups := make(map[tuple.Key]tuple.AggState)
	for i, r := range results {
		if errs[i] != nil {
			return nil, nil, fmt.Errorf("node %d: %w", i, errs[i])
		}
		for k, s := range r.Groups {
			if _, dup := groups[k]; dup {
				return nil, nil, fmt.Errorf("group %d produced by two nodes", k)
			}
			groups[k] = s
		}
	}
	return groups, results, nil
}

// wireCount counts the bytes and write calls of every TCP connection the
// dist nodes open or accept, through the Config.Dial and WrapListener
// hooks.
type wireCount struct {
	bytes, writes atomic.Int64
}

func (w *wireCount) dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	c, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, w: w}, nil
}

func (w *wireCount) wrap(ln net.Listener) net.Listener { return countingListener{Listener: ln, w: w} }

func (w *wireCount) reset() {
	w.bytes.Store(0)
	w.writes.Store(0)
}

type countingConn struct {
	net.Conn
	w *wireCount
}

func (c countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.w.bytes.Add(int64(n))
	c.w.writes.Add(1)
	return n, err
}

type countingListener struct {
	net.Listener
	w *wireCount
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, w: l.w}, nil
}

// sqlQuerier runs the Q1-shaped query through sqlagg.Execute under A-2P.
type sqlQuerier struct {
	q   *q1
	cfg live.Config
}

func sqlInstance(q *q1, workers int) *instance {
	tg := target{q: &sqlQuerier{q: q, cfg: live.Config{Workers: workers}}, cycle: 1, rows: len(q.table.Rows),
		call: "sqlagg.Execute", layer: "live"}
	return &instance{target: tg, groups: len(q.want), in: q.stream, orc: foldOracle(q.stream.tuples)}
}

func (q *sqlQuerier) alg(int) string { return live.AdaptiveTwoPhase.String() }

func (q *sqlQuerier) run(_ int, o *observed) (func() error, error) {
	cfg := q.cfg
	if o != nil {
		cfg.Tracer = o.tracer
	}
	res, err := sqlagg.Execute(q.q.table, q.q.query, cfg, live.AdaptiveTwoPhase)
	if err != nil {
		return nil, err
	}
	return func() error { return checkRows(q.q.want, res.Rows) }, nil
}
