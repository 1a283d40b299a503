package dist

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"parallelagg/internal/aggtable"
	"parallelagg/internal/tuple"
)

// TestAllocsPinNodeTableFlush pins the scan side's flush: once a table
// has been filled to its bound and flushed, refilling and flushing it
// again allocates nothing. CI runs it with the other AllocsPin tests.
func TestAllocsPinNodeTableFlush(t *testing.T) {
	const bound, n = 1024, 3
	nt := newNodeTable(bound, 0, n, 128)
	dest := func(k tuple.Key) int { return k.Dest(n) }
	shipped := 0
	write := func(_ int, ps []tuple.Partial) error {
		shipped += len(ps)
		return nil
	}
	fillAndFlush := func() {
		for i := 0; i < bound; i++ {
			if !nt.fold(tuple.Tuple{Key: tuple.Key(i * 7919), Val: int64(i)}) {
				t.Fatalf("fold of group %d refused below the bound", i)
			}
		}
		if nt.fold(tuple.Tuple{Key: tuple.Key(1 << 40), Val: 1}) {
			t.Fatal("fold of a new group accepted at the bound")
		}
		if err := nt.flush(dest, write); err != nil {
			t.Fatal(err)
		}
	}
	fillAndFlush() // warm-up: grows the table and the buffers once
	allocs := testing.AllocsPerRun(100, fillAndFlush)
	if allocs != 0 {
		t.Errorf("steady-state fill and flush allocates %.1f per op, want 0", allocs)
	}
	if want := bound * 102; shipped != want {
		t.Errorf("shipped %d partials, want %d", shipped, want)
	}
}

// TestNodeTableFlushCutsOversizedTables: flushing an unbounded table that
// holds more groups than one frame may carry hands write slices of at
// most batch partials, each to the right destination, and ships every
// group exactly once. When a flush shipped a destination's whole share as
// one frame, this table produced a frame the writers refuse, failing the
// query.
func TestNodeTableFlushCutsOversizedTables(t *testing.T) {
	if raceEnabled {
		t.Skip("a table of a million groups costs several times its ~150 MB in race shadow memory")
	}
	const groups, n, batch = maxFrameRecords + 1, 2, 1024
	nt := newNodeTable(0, groups, n, batch)
	for i := 0; i < groups; i++ {
		nt.fold(tuple.Tuple{Key: tuple.Key(i), Val: 1})
	}
	shipped := 0
	err := nt.flush(func(k tuple.Key) int { return k.Dest(n) }, func(d int, ps []tuple.Partial) error {
		if len(ps) == 0 || len(ps) > batch {
			t.Fatalf("write of %d partials, want 1..%d", len(ps), batch)
		}
		for _, p := range ps {
			if p.Key.Dest(n) != d {
				t.Fatalf("group %d written to destination %d, owner %d", p.Key, d, p.Key.Dest(n))
			}
		}
		shipped += len(ps)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if shipped != groups {
		t.Errorf("shipped %d partials, want %d", shipped, groups)
	}
}

// recorder captures the bytes of every connection of a loopback cluster,
// keyed by (src, dst): writes through the Config.Dial hook, reads through
// the Config.WrapListener hook.
type recorder struct {
	mu   sync.Mutex
	sent map[[2]int]*bytes.Buffer
	recv map[int][]*bytes.Buffer // dst -> inbound streams, src read from the hello
}

func newRecorder() *recorder {
	return &recorder{sent: map[[2]int]*bytes.Buffer{}, recv: map[int][]*bytes.Buffer{}}
}

type recConn struct {
	net.Conn
	mu    *sync.Mutex
	buf   *bytes.Buffer
	write bool
}

func (c *recConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.write {
		c.mu.Lock()
		c.buf.Write(p[:n])
		c.mu.Unlock()
	}
	return n, err
}

func (c *recConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if !c.write {
		c.mu.Lock()
		c.buf.Write(p[:n])
		c.mu.Unlock()
	}
	return n, err
}

type recListener struct {
	net.Listener
	rec *recorder
	dst int
}

func (l *recListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	buf := &bytes.Buffer{}
	l.rec.mu.Lock()
	l.rec.recv[l.dst] = append(l.rec.recv[l.dst], buf)
	l.rec.mu.Unlock()
	return &recConn{Conn: c, mu: &l.rec.mu, buf: buf}, nil
}

// hook installs the recorder on node id's config.
func (r *recorder) hook(id int, cfg *Config) {
	index := make(map[string]int, len(cfg.Addrs))
	for i, a := range cfg.Addrs {
		index[a] = i
	}
	cfg.Dial = func(network, addr string, timeout time.Duration) (net.Conn, error) {
		c, err := net.DialTimeout(network, addr, timeout)
		if err != nil {
			return nil, err
		}
		buf := &bytes.Buffer{}
		r.mu.Lock()
		r.sent[[2]int{id, index[addr]}] = buf
		r.mu.Unlock()
		return &recConn{Conn: c, mu: &r.mu, buf: buf, write: true}, nil
	}
	cfg.WrapListener = func(ln net.Listener) net.Listener { return &recListener{Listener: ln, rec: r, dst: id} }
}

// received returns the inbound streams keyed by (src, dst), src taken
// from each stream's hello.
func (r *recorder) received(t *testing.T) map[[2]int][]byte {
	t.Helper()
	out := map[[2]int][]byte{}
	for dst, bufs := range r.recv {
		for _, b := range bufs {
			src, err := readHello(bytes.NewReader(b.Bytes()))
			if err != nil {
				t.Fatalf("node %d: inbound stream without a hello: %v", dst, err)
			}
			out[[2]int{src, dst}] = b.Bytes()
		}
	}
	return out
}

// launch runs one RunNode per part on loopback and returns every node's
// result. perNode, when set, adjusts node i's copy of template.
func launch(t *testing.T, parts [][]tuple.Tuple, template Config, perNode func(i int, cfg *Config)) []*NodeResult {
	t.Helper()
	n := len(parts)
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	if template.Tolerate {
		template.PartitionSource = func(node int) []tuple.Tuple { return parts[node] }
	}
	results := make([]*NodeResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range lns {
		cfg := template
		cfg.ID, cfg.Addrs = i, addrs
		if perNode != nil {
			perNode(i, &cfg)
		}
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = RunNode(lns[i], cfg, parts[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	return results
}

// TestWireSameSeedByteIdentical: the scan side ships partials in drain
// (slot) order, not key order, and the wire must still be a pure function
// of the input. Two runs of the same cluster put the same bytes on every
// (src, dst) connection, and what each node received is what its peer
// sent. A-Rep is excluded: its end-of-phase broadcast crosses nodes, so
// where a scan falls back depends on timing.
func TestWireSameSeedByteIdentical(t *testing.T) {
	parts := genParts(1, 3, 6_000, 1_500)
	for _, alg := range []Algorithm{TwoPhase, Repartitioning, AdaptiveTwoPhase} {
		var runs [2]map[[2]int][]byte
		for r := range runs {
			rec := newRecorder()
			launch(t, parts, Config{Algorithm: alg, TableEntries: 256, Batch: 128}, rec.hook)
			runs[r] = map[[2]int][]byte{}
			for k, b := range rec.sent {
				runs[r][k] = b.Bytes()
			}
			recv := rec.received(t)
			if len(recv) != len(runs[r]) {
				t.Fatalf("%v: %d inbound streams, %d outbound", alg, len(recv), len(runs[r]))
			}
			for k, b := range runs[r] {
				if !bytes.Equal(recv[k], b) {
					t.Fatalf("%v: node %d received %d bytes from node %d, which sent %d", alg, k[1], len(recv[k]), k[0], len(b))
				}
			}
		}
		if len(runs[0]) != 9 {
			t.Fatalf("%v: recorded %d connections, want 9", alg, len(runs[0]))
		}
		for k, b := range runs[0] {
			if !bytes.Equal(runs[1][k], b) {
				t.Errorf("%v: connection %d->%d differs between same-seed runs (%d vs %d bytes)", alg, k[0], k[1], len(b), len(runs[1][k]))
			}
		}
	}
}

// TestFramesCutAtBatch: on the wire, every data frame carries at most
// Config.Batch records, partial frames included, in both dialects and for
// every algorithm, and the answer still equals the sequential fold. Each
// node's table holds several Batches of groups per destination at every
// flush, so 2P's largest partial frame must be exactly Batch.
func TestFramesCutAtBatch(t *testing.T) {
	const batch, bound = 128, 1024
	parts := genParts(2, 3, 6_000, 3_000)
	want := sequentialFold(parts)
	for _, tolerate := range []bool{false, true} {
		for _, alg := range algorithms() {
			name := fmt.Sprintf("tolerate=%v %v", tolerate, alg)
			template := Config{Algorithm: alg, TableEntries: bound, Batch: batch}
			if tolerate {
				template = tolerantTemplate(alg)
				template.TableEntries, template.Batch = bound, batch
			}
			rec := newRecorder()
			got := map[tuple.Key]tuple.AggState{}
			for _, r := range launch(t, parts, template, rec.hook) {
				for k, s := range r.Groups {
					got[k] = s
				}
			}
			if !maps.Equal(got, want) {
				t.Fatalf("%s: %d groups differ from the sequential fold's %d", name, len(got), len(want))
			}
			maxPartial := 0
			for conn, stream := range rec.sent {
				for _, f := range recordedFrames(t, stream, tolerate) {
					if f.records() > batch {
						t.Fatalf("%s: connection %d->%d carried a frame of kind %d with %d records, Batch is %d",
							name, conn[0], conn[1], f.kind, f.records(), batch)
					}
					if f.part != nil {
						maxPartial = max(maxPartial, len(f.part.ps))
					}
				}
			}
			if alg == TwoPhase && maxPartial != batch {
				t.Errorf("%s: largest partial frame has %d records, want exactly Batch (%d)", name, maxPartial, batch)
			}
		}
	}
}

// recordedFrames parses one recorded outbound stream, hello first, into
// its frames with the dialect's reader.
func recordedFrames(t *testing.T, stream *bytes.Buffer, tolerant bool) []frame {
	t.Helper()
	r := bufio.NewReader(bytes.NewReader(stream.Bytes()))
	if _, err := readHello(r); err != nil {
		t.Fatalf("stream without a hello: %v", err)
	}
	var frames []frame
	for {
		var f frame
		var err error
		if tolerant {
			var tf tframe
			tf, err = readTFrame(r)
			f = tf.frame
		} else {
			f, err = readFrame(r)
		}
		if err == io.EOF {
			return frames
		}
		if err != nil {
			t.Fatalf("recorded stream does not parse after %d frames: %v", len(frames), err)
		}
		frames = append(frames, f)
	}
}

// sequentialFold folds every partition into one table: the oracle.
func sequentialFold(parts [][]tuple.Tuple) map[tuple.Key]tuple.AggState {
	oracle := aggtable.New(0)
	for _, p := range parts {
		for _, tp := range p {
			oracle.UpdateRaw(tp)
		}
	}
	want := map[tuple.Key]tuple.AggState{}
	for _, p := range oracle.AppendDrain(nil) {
		want[p.Key] = p.State
	}
	return want
}

// genParts draws n partitions of rows tuples each over at most groups
// scattered keys.
func genParts(seed int64, n, rows, groups int) [][]tuple.Tuple {
	rng := rand.New(rand.NewSource(seed))
	parts := make([][]tuple.Tuple, n)
	for i := range parts {
		parts[i] = make([]tuple.Tuple, rows)
		for j := range parts[i] {
			g := rng.Intn(groups)
			parts[i][j] = tuple.Tuple{Key: tuple.Key(uint64(g) * 0x9E3779B97F4A7C15), Val: rng.Int63n(2_000_001) - 1_000_000}
		}
	}
	return parts
}

// TestOracleSweep checks both engines, every algorithm and bounds from
// "flush on every new group" (1) to unbounded (0) against one sequential
// fold of the whole input, over 20 seeds.
func TestOracleSweep(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		n := 1 + int(seed%4)
		parts := genParts(seed, n, 200+int(seed)*37, 10+int(seed)*13)
		want := sequentialFold(parts)
		perNode := make([]int, n)
		for i, p := range parts {
			seen := map[tuple.Key]bool{}
			for _, tp := range p {
				seen[tp.Key] = true
			}
			perNode[i] = len(seen)
		}
		for _, tolerate := range []bool{false, true} {
			for _, alg := range algorithms() {
				for _, bound := range []int{1, 7, 64, 0} {
					name := fmt.Sprintf("seed=%d nodes=%d tolerate=%v %v bound=%d", seed, n, tolerate, alg, bound)
					template := Config{Algorithm: alg, TableEntries: bound, Batch: 16}
					if tolerate {
						template = tolerantTemplate(alg)
						template.TableEntries, template.Batch = bound, 16
					}
					got := map[tuple.Key]tuple.AggState{}
					for i, r := range launch(t, parts, template, nil) {
						for k, s := range r.Groups {
							if _, dup := got[k]; dup {
								t.Fatalf("%s: group %d produced twice (second: node %d)", name, k, i)
							}
							got[k] = s
						}
						if alg == TwoPhase && bound > 0 && bound < perNode[i] && r.PartialsSent <= int64(perNode[i]) {
							t.Errorf("%s: node %d sent %d partials for %d groups under bound %d; the flush path never ran",
								name, i, r.PartialsSent, perNode[i], bound)
						}
					}
					if len(got) != len(want) {
						t.Fatalf("%s: %d groups, want %d", name, len(got), len(want))
					}
					for k, ws := range want {
						if gs, ok := got[k]; !ok || gs != ws {
							t.Fatalf("%s: group %d = %+v, want %+v", name, k, gs, ws)
						}
					}
				}
			}
		}
	}
}

// BenchmarkRunConfigured times one fail-fast loopback query on the
// dist-loopback shape of the repository benchmark (perfbench): 256 Ki
// rows over 13,107 groups, two nodes, TableEntries 8192. The input is
// built once; each iteration runs the whole cluster, dial to result.
func BenchmarkRunConfigured(b *testing.B) {
	const rows, groups, nodes = 256 << 10, 13_107, 2
	parts := genParts(1, nodes, rows/nodes, groups)
	for _, alg := range algorithms() {
		b.Run(alg.String(), func(b *testing.B) {
			cfg := Config{Algorithm: alg, TableEntries: 8192}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := RunConfigured(parts, cfg)
				if err != nil {
					b.Fatal(err)
				}
				benchGroups = len(res.Groups)
			}
			b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

var benchGroups int
