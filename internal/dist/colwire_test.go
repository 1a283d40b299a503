package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"testing/quick"

	"parallelagg/internal/tuple"
	"parallelagg/internal/workload"
)

func TestColWireRawRoundTrip(t *testing.T) {
	in := []tuple.Tuple{{Key: 1, Val: -2}, {Key: 3, Val: 4}, {Key: 1 << 40, Val: -1}}
	buf, err := rawColFrameInto(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	f, err := readFrame(bufio.NewReader(bytes.NewReader(buf)))
	if err != nil {
		t.Fatal(err)
	}
	if f.kind != frameRawCol || len(f.tuples()) != len(in) {
		t.Fatalf("frame = %+v", f)
	}
	for i := range in {
		if f.tuples()[i] != in[i] {
			t.Fatalf("record %d = %v, want %v", i, f.tuples()[i], in[i])
		}
	}
}

func TestColWirePartialRoundTrip(t *testing.T) {
	in := []tuple.Partial{
		{Key: 9, State: tuple.NewState(7)},
		{Key: 2, State: tuple.NewState(-3)},
	}
	in[1].State.Update(11)
	buf, err := partialColFrameInto(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	f, err := readFrame(bufio.NewReader(bytes.NewReader(buf)))
	if err != nil {
		t.Fatal(err)
	}
	if f.kind != framePartialCol || len(f.partials()) != len(in) {
		t.Fatalf("frame = %+v", f)
	}
	for i := range in {
		if f.partials()[i] != in[i] {
			t.Fatalf("record %d = %v, want %v", i, f.partials()[i], in[i])
		}
	}
}

func TestColWireTolerantRoundTrip(t *testing.T) {
	ts := []tuple.Tuple{{Key: 5, Val: 6}, {Key: 7, Val: -8}}
	buf, err := tRawColFrameInto(nil, 3, 2, ts)
	if err != nil {
		t.Fatal(err)
	}
	f, err := readTFrame(bufio.NewReader(bytes.NewReader(buf)))
	if err != nil {
		t.Fatal(err)
	}
	if f.kind != frameRawCol || f.origin != 3 || f.epoch != 2 || len(f.tuples()) != 2 {
		t.Fatalf("frame = %+v", f)
	}
	for i := range ts {
		if f.tuples()[i] != ts[i] {
			t.Fatalf("record %d = %v, want %v", i, f.tuples()[i], ts[i])
		}
	}

	ps := []tuple.Partial{{Key: 1, State: tuple.NewState(2)}}
	buf, err = tPartialColFrameInto(buf[:0], 1, 0, ps)
	if err != nil {
		t.Fatal(err)
	}
	f, err = readTFrame(bufio.NewReader(bytes.NewReader(buf)))
	if err != nil {
		t.Fatal(err)
	}
	if f.kind != framePartialCol || f.origin != 1 || f.epoch != 0 || len(f.partials()) != 1 || f.partials()[0] != ps[0] {
		t.Fatalf("frame = %+v", f)
	}
}

// A forged columnar length prefix must surface as a read error, never a
// giant allocation: the body buffer grows chunk-by-chunk as bytes
// actually arrive, so a header claiming maxFrameRecords records with a
// short body fails at the first missing chunk.
func TestColWireRejectsForgedCounts(t *testing.T) {
	forge := func(kind frameKind, count int, body []byte) []byte {
		b := make([]byte, 5, 5+len(body))
		b[0] = byte(kind)
		binary.LittleEndian.PutUint32(b[1:5], uint32(count))
		return append(b, body...)
	}
	cases := map[string][]byte{
		"rawcol count over limit":     forge(frameRawCol, maxFrameRecords+1, nil),
		"rawcol huge count no body":   forge(frameRawCol, maxFrameRecords, nil),
		"rawcol truncated body":       forge(frameRawCol, 4, make([]byte, 3*tuple.RawSize)),
		"rawcol truncated mid-column": forge(frameRawCol, 2, make([]byte, 2*8+4)),
		"partialcol huge count":       forge(framePartialCol, maxFrameRecords, nil),
		"partialcol truncated":        forge(framePartialCol, 3, make([]byte, 2*tuple.PartialSize)),
	}
	for name, b := range cases {
		if _, err := readFrame(bufio.NewReader(bytes.NewReader(b))); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Same forgeries against the tolerant decoder.
	tforge := func(kind frameKind, count int, body []byte) []byte {
		b := make([]byte, tHeaderSize, tHeaderSize+len(body))
		putTHeader(b, kind, 0, 0, 0, count)
		return append(b, body...)
	}
	tcases := map[string][]byte{
		"t rawcol huge count":     tforge(frameRawCol, maxFrameRecords, nil),
		"t rawcol truncated":      tforge(frameRawCol, 4, make([]byte, 3*tuple.RawSize)),
		"t partialcol huge count": tforge(framePartialCol, maxFrameRecords, nil),
		"t partialcol truncated":  tforge(framePartialCol, 3, make([]byte, 2*tuple.PartialSize)),
	}
	for name, b := range tcases {
		if _, err := readTFrame(bufio.NewReader(bytes.NewReader(b))); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// The columnar writers enforce maxFrameRecords like the row writers, and
// must refuse before writing anything.
func TestColWriteSideFrameBound(t *testing.T) {
	over := maxFrameRecords + 1
	if _, err := rawColFrameInto(nil, make([]tuple.Tuple, over)); err == nil {
		t.Error("columnar raw frame over the record limit accepted")
	}
	if _, err := partialColFrameInto(nil, make([]tuple.Partial, over)); err == nil {
		t.Error("columnar partial frame over the record limit accepted")
	}
	if _, err := tRawColFrameInto(nil, 0, 0, make([]tuple.Tuple, over)); err == nil {
		t.Error("tolerant columnar raw frame over the record limit accepted")
	}
	if _, err := tPartialColFrameInto(nil, 0, 0, make([]tuple.Partial, over)); err == nil {
		t.Error("tolerant columnar partial frame over the record limit accepted")
	}
}

// A columnar peer writes frames a row-mode reader of the same decoder
// still understands (decoders accept both layouts unconditionally).
func TestPeerColumnarWrites(t *testing.T) {
	var buf bytes.Buffer
	p := &peer{id: 1, w: bufio.NewWriter(&buf), columnar: true, conn: nil}
	// arm() is skipped by the zero timeout, so a nil conn is safe here.
	if err := p.writeRaw([]tuple.Tuple{{Key: 1, Val: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := p.writePartials([]tuple.Partial{{Key: 3, State: tuple.NewState(4)}}); err != nil {
		t.Fatal(err)
	}
	p.w.Flush()
	r := bufio.NewReader(&buf)
	f, err := readFrame(r)
	if err != nil || f.kind != frameRawCol || len(f.tuples()) != 1 || f.tuples()[0] != (tuple.Tuple{Key: 1, Val: 2}) {
		t.Fatalf("raw frame = %+v, %v", f, err)
	}
	f, err = readFrame(r)
	if err != nil || f.kind != framePartialCol || len(f.partials()) != 1 {
		t.Fatalf("partial frame = %+v, %v", f, err)
	}
}

// Property: the columnar and row encodings of the same batch decode to
// identical records.
func TestColWireMatchesRowWire(t *testing.T) {
	f := func(keys []uint16, vals []int32) bool {
		n := min(len(keys), len(vals))
		in := make([]tuple.Tuple, n)
		for i := 0; i < n; i++ {
			in[i] = tuple.Tuple{Key: tuple.Key(keys[i]), Val: int64(vals[i])}
		}
		row, err := rawFrameInto(nil, in)
		if err != nil {
			return false
		}
		col, err := rawColFrameInto(nil, in)
		if err != nil {
			return false
		}
		fr, err1 := readFrame(bufio.NewReader(bytes.NewReader(row)))
		fc, err2 := readFrame(bufio.NewReader(bytes.NewReader(col)))
		if err1 != nil || err2 != nil || len(fr.tuples()) != len(fc.tuples()) {
			return false
		}
		for i := range fr.tuples() {
			if fr.tuples()[i] != fc.tuples()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Full clusters over loopback TCP with columnar framing enabled must
// produce the exact reference answer for every algorithm.
func TestDistributedColumnarAllAlgorithms(t *testing.T) {
	rel := workload.Uniform(4, 20_000, 1_000, 11)
	for _, alg := range algorithms() {
		res, err := RunConfigured(rel.PerNode, Config{Algorithm: alg, TableEntries: 256, Columnar: true})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		verify(t, rel, res.Groups)
	}
}

// A mixed cluster — one columnar node, one row node — must interoperate:
// the flag only changes what a node writes, every decoder accepts both.
func TestDistributedColumnarMixedCluster(t *testing.T) {
	rel := workload.Uniform(2, 10_000, 500, 12)
	listeners := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	results := make([]*NodeResult, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := Config{ID: i, Addrs: addrs, Algorithm: Repartitioning, Columnar: i == 0}
			results[i], errs[i] = RunNode(listeners[i], cfg, rel.PerNode[i])
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	got := make(map[tuple.Key]tuple.AggState)
	for _, r := range results {
		for k, s := range r.Groups {
			if have, ok := got[k]; ok {
				have.Merge(s)
				got[k] = have
			} else {
				got[k] = s
			}
		}
	}
	verify(t, rel, got)
}

// Tolerant mode speaks the tagged dialect; columnar framing must survive
// it too, including the supervised completion protocol.
func TestDistributedColumnarTolerant(t *testing.T) {
	rel := workload.Uniform(3, 12_000, 800, 13)
	res, err := RunConfigured(rel.PerNode, Config{
		Algorithm:    Repartitioning,
		TableEntries: 0,
		Columnar:     true,
		Tolerate:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dead) != 0 {
		t.Fatalf("healthy columnar cluster declared %v dead", res.Dead)
	}
	verify(t, rel, res.Groups)
}
