package dist

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"os"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"parallelagg/internal/aggtable"
	"parallelagg/internal/tuple"
)

// tuples and partials return a decoded frame's records of that kind, nil
// when it carries none.
func (f frame) tuples() []tuple.Tuple {
	if f.raw == nil {
		return nil
	}
	return f.raw.ts
}

func (f frame) partials() []tuple.Partial {
	if f.part == nil {
		return nil
	}
	return f.part.ps
}

// writeRawFrame sends a batch of raw tuples as one fail-fast frame in
// one Write call.
func writeRawFrame(w io.Writer, ts []tuple.Tuple) error {
	buf, err := rawFrameInto(nil, headerSize, ts)
	if err != nil {
		return err
	}
	putHeader(buf, frameRaw, len(ts))
	_, err = w.Write(buf)
	return err
}

// writePartialFrame sends a batch of partial aggregates as one fail-fast
// frame in one Write call.
func writePartialFrame(w io.Writer, ps []tuple.Partial) error {
	buf, err := partialFrameInto(nil, headerSize, ps)
	if err != nil {
		return err
	}
	putHeader(buf, framePartial, len(ps))
	_, err = w.Write(buf)
	return err
}

// tRawFrame and tPartialFrame return the bytes a tolerant peer's writers
// put on the wire for one data frame.
func tRawFrame(origin, epoch int, ts []tuple.Tuple) ([]byte, error) {
	return tpeerBytes(func(p *tpeer) error { return p.writeRawT(origin, epoch, ts) })
}

func tPartialFrame(origin, epoch int, ps []tuple.Partial) ([]byte, error) {
	return tpeerBytes(func(p *tpeer) error { return p.writePartialsT(origin, epoch, ps) })
}

func tpeerBytes(write func(*tpeer) error) ([]byte, error) {
	var out bytes.Buffer
	p := &tpeer{w: bufio.NewWriter(&out)}
	if err := write(p); err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	err := p.w.Flush()
	return out.Bytes(), err
}

// sendBatches returns a raw batch and a partial batch of n records each,
// all with distinct keys.
func sendBatches(n int) ([]tuple.Tuple, []tuple.Partial) {
	ts := make([]tuple.Tuple, n)
	ps := make([]tuple.Partial, n)
	for i := range ts {
		ts[i] = tuple.Tuple{Key: tuple.Key(i * 7919), Val: int64(i)}
		ps[i] = tuple.Partial{Key: tuple.Key(1<<40 + i*7919), State: tuple.NewState(int64(-i))}
	}
	return ts, ps
}

// TestAllocsPinSendFrames pins the send path of both dialects: once a
// peer's frame buffer is warm, writing a raw frame and a partial frame of
// Batch records through its buffered writer allocates nothing. It is the
// runtime check behind lint's -require-noalloc entries for rawFrameInto
// and partialFrameInto. CI runs it with the other AllocsPin tests.
func TestAllocsPinSendFrames(t *testing.T) {
	ts, ps := sendBatches(1024)
	p := &peer{id: 1, w: bufio.NewWriterSize(io.Discard, 1<<16)}
	tp := &tpeer{id: 1, w: bufio.NewWriterSize(io.Discard, 1<<16)}
	dialects := []struct {
		name string
		send func() error
	}{
		{"fail-fast", func() error {
			if err := p.writeRaw(ts); err != nil {
				return err
			}
			return p.writePartials(ps)
		}},
		{"tolerant", func() error {
			if err := tp.writeRawT(1, 0, ts); err != nil {
				return err
			}
			return tp.writePartialsT(1, 0, ps)
		}},
	}
	for _, d := range dialects {
		var err error
		send := func() {
			if e := d.send(); e != nil {
				err = e
			}
		}
		send() // warm-up: sizes the frame buffer
		if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
			t.Errorf("%s: steady-state frame writes allocate %.1f per op, want 0", d.name, allocs)
		}
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
	}
}

// The data frames of both dialects, byte for byte: one raw frame of two
// tuples and one partial frame of one record each. The fail-fast header
// is kind and count; the tolerant header adds origin, epoch and aux.
func TestDataFrameGoldenBytes(t *testing.T) {
	const (
		rawRecords = "0100000000000000" + "feffffffffffffff" + // key 1, val -2
			"0000000000010000" + "0300000000000000" // key 1<<40, val 3
		partialRecord = "0900000000000000" + // key 9
			"0200000000000000" + "0400000000000000" + "3a00000000000000" + // count 2, sum 4, sumsq 58
			"fdffffffffffffff" + "0700000000000000" // min -3, max 7
	)
	ts := []tuple.Tuple{{Key: 1, Val: -2}, {Key: 1 << 40, Val: 3}}
	st := tuple.NewState(7)
	st.Update(-3)
	ps := []tuple.Partial{{Key: 9, State: st}}

	var out bytes.Buffer
	p := &peer{w: bufio.NewWriter(&out)}
	peerBytes := func(write func() error) ([]byte, error) {
		out.Reset()
		if err := write(); err != nil {
			return nil, err
		}
		err := p.w.Flush()
		return out.Bytes(), err
	}
	cases := []struct {
		name  string
		frame func() ([]byte, error)
		want  string
	}{
		{"fail-fast raw", func() ([]byte, error) {
			return peerBytes(func() error { return p.writeRaw(ts) })
		}, "01" + "02000000" + rawRecords},
		{"fail-fast partial", func() ([]byte, error) {
			return peerBytes(func() error { return p.writePartials(ps) })
		}, "02" + "01000000" + partialRecord},
		{"tolerant raw", func() ([]byte, error) {
			return tRawFrame(3, 2, ts)
		}, "01" + "03" + "0200" + "00000000" + "02000000" + rawRecords},
		{"tolerant partial", func() ([]byte, error) {
			return tPartialFrame(1, 0x0102, ps)
		}, "02" + "01" + "0201" + "00000000" + "01000000" + partialRecord},
	}
	for _, tc := range cases {
		got, err := tc.frame()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if h := hex.EncodeToString(got); h != tc.want {
			t.Errorf("%s frame:\n got %s\nwant %s", tc.name, h, tc.want)
		}
	}
}

// Kinds 11 and 12, the retired columnar layout, are reserved: both
// readers refuse them as unknown kinds and hand back no holder, even when
// a whole record follows the header.
func TestReadersRejectRetiredKinds(t *testing.T) {
	record := make([]byte, tuple.PartialSize)
	for _, kind := range []frameKind{11, 12} {
		b := make([]byte, headerSize, headerSize+len(record))
		putHeader(b, kind, 1)
		f, err := readFrame(bufio.NewReader(bytes.NewReader(append(b, record...))))
		if err == nil || !strings.Contains(err.Error(), "unknown frame kind") || f.raw != nil || f.part != nil {
			t.Errorf("readFrame of kind %d = %+v, %v; want an unknown-kind error and no holder", kind, f, err)
		}
		tb := make([]byte, tHeaderSize, tHeaderSize+len(record))
		putTHeader(tb, kind, 0, 0, 0, 1)
		tf, err := readTFrame(bufio.NewReader(bytes.NewReader(append(tb, record...))))
		if err == nil || !strings.Contains(err.Error(), "unknown frame kind") || tf.raw != nil || tf.part != nil {
			t.Errorf("readTFrame of kind %d = %+v, %v; want an unknown-kind error and no holder", kind, tf, err)
		}
	}
}

// TestAllocsPinReceiveFold pins the receive path of both dialects: once
// warm, decoding a raw frame and a partial frame of Batch records from a
// buffered reader over encoded bytes, folding them into an unbounded
// table and handing the holders back allocates nothing. CI runs it with
// the other AllocsPin tests.
func TestAllocsPinReceiveFold(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of Puts under -race")
	}
	const batch = 1024
	ts, ps := sendBatches(batch)
	dialects := []struct {
		name   string
		stream []byte
		read   func(*bufio.Reader) (frame, error)
	}{
		{"fail-fast", slices.Concat(encodeRawFrame(ts), encodePartialFrame(ps)), readFrame},
		{"tolerant", slices.Concat(mustFrame(tRawFrame(1, 0, ts)), mustFrame(tPartialFrame(1, 0, ps))),
			func(r *bufio.Reader) (frame, error) {
				f, err := readTFrame(r)
				return f.frame, err
			}},
	}
	for _, d := range dialects {
		merged := aggtable.New(0)
		src := bytes.NewReader(nil)
		r := bufio.NewReaderSize(src, 1<<16)
		receive := func() {
			src.Reset(d.stream)
			r.Reset(src)
			for range 2 {
				f, err := d.read(r)
				if err != nil {
					t.Fatalf("%s: %v", d.name, err)
				}
				switch {
				case f.raw != nil:
					for _, tp := range f.raw.ts {
						merged.UpdateRaw(tp)
					}
					rawHolders.Put(f.raw)
				case f.part != nil:
					for _, p := range f.part.ps {
						merged.MergePartial(p)
					}
					partHolders.Put(f.part)
				default:
					t.Fatalf("%s: frame of kind %d carries no records", d.name, f.kind)
				}
			}
		}
		receive() // warm-up: sizes the holders and the table
		if allocs := testing.AllocsPerRun(100, receive); allocs != 0 {
			t.Errorf("%s: steady-state receive and fold allocates %.1f per op, want 0", d.name, allocs)
		}
		if merged.Len() != 2*batch {
			t.Errorf("%s: folded %d groups, want %d", d.name, merged.Len(), 2*batch)
		}
	}
}

func TestWireRawRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	in := []tuple.Tuple{{Key: 1, Val: -2}, {Key: 3, Val: 4}}
	if err := writeRawFrame(w, in); err != nil {
		t.Fatal(err)
	}
	if err := writeEOSFrame(w); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(&buf)
	f, err := readFrame(r)
	if err != nil {
		t.Fatal(err)
	}
	if f.kind != frameRaw || len(f.tuples()) != 2 || f.tuples()[0] != in[0] || f.tuples()[1] != in[1] {
		t.Fatalf("frame = %+v", f)
	}
	f, err = readFrame(r)
	if err != nil || f.kind != frameEOS {
		t.Fatalf("EOS frame = %+v, %v", f, err)
	}
}

func TestWirePartialRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	in := []tuple.Partial{{Key: 9, State: tuple.NewState(7)}}
	if err := writePartialFrame(w, in); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	f, err := readFrame(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if f.kind != framePartial || len(f.partials()) != 1 || f.partials()[0] != in[0] {
		t.Fatalf("frame = %+v", f)
	}
}

func TestWireRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"unknown kind":   {9, 0, 0, 0, 0},
		"eos with count": {byte(frameEOS), 1, 0, 0, 0},
		"huge count":     {byte(frameRaw), 0xff, 0xff, 0xff, 0x7f},
		"truncated":      {byte(frameRaw), 2, 0, 0, 0, 1, 2, 3},
	}
	for name, b := range cases {
		if _, err := readFrame(bufio.NewReader(bytes.NewReader(b))); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// The writers must enforce maxFrameRecords too: a frame the decoder
// would reject may never reach the wire, and nothing may be written
// before the check (a partial frame would corrupt the stream).
func TestWriteSideFrameBound(t *testing.T) {
	over := maxFrameRecords + 1
	var buf bytes.Buffer
	if err := writeRawFrame(&buf, make([]tuple.Tuple, over)); err == nil {
		t.Error("raw frame over the record limit accepted")
	}
	if buf.Len() != 0 {
		t.Errorf("rejected raw frame wrote %d bytes", buf.Len())
	}
	if err := writePartialFrame(&buf, make([]tuple.Partial, over)); err == nil {
		t.Error("partial frame over the record limit accepted")
	}
	if buf.Len() != 0 {
		t.Errorf("rejected partial frame wrote %d bytes", buf.Len())
	}
	// Exactly at the bound must be accepted by writer and reader alike.
	w := bufio.NewWriterSize(&buf, 1<<16)
	if err := writeRawFrame(w, make([]tuple.Tuple, maxFrameRecords)); err != nil {
		t.Fatalf("raw frame at the record limit rejected: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	f, err := readFrame(bufio.NewReader(&buf))
	if err != nil || len(f.tuples()) != maxFrameRecords {
		t.Fatalf("limit-sized frame: %d records, %v", len(f.tuples()), err)
	}
}

// Each data frame must reach the writer as exactly one Write call — the
// single-buffer encode is the zero-allocation data plane's contract.
func TestFrameSingleWrite(t *testing.T) {
	var cw countingWriter
	if err := writeRawFrame(&cw, []tuple.Tuple{{Key: 1, Val: 2}, {Key: 3, Val: 4}}); err != nil {
		t.Fatal(err)
	}
	if cw.calls != 1 {
		t.Errorf("raw frame took %d Write calls, want 1", cw.calls)
	}
	cw.calls = 0
	if err := writePartialFrame(&cw, []tuple.Partial{{Key: 9, State: tuple.NewState(7)}}); err != nil {
		t.Fatal(err)
	}
	if cw.calls != 1 {
		t.Errorf("partial frame took %d Write calls, want 1", cw.calls)
	}
}

type countingWriter struct{ calls int }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.calls++
	return len(p), nil
}

func TestHelloRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writeHello(&buf, 42); err != nil {
		t.Fatal(err)
	}
	got, err := readHello(&buf)
	if err != nil || got != 42 {
		t.Fatalf("hello = %d, %v", got, err)
	}
}

// peer writes arm a fresh deadline per frame: a connection nobody drains
// must fail the write within the timeout instead of blocking forever.
func TestPeerWriteDeadline(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	p := &peer{id: 1, conn: a, w: bufio.NewWriterSize(a, 8), timeout: 50 * time.Millisecond}
	start := time.Now()
	err := p.writeEOS() // flushes into a pipe with no reader
	if err == nil {
		t.Fatal("write to undrained pipe succeeded")
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("err = %v, want deadline exceeded", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("deadline took %v to fire", d)
	}
}

// A zero timeout must not arm deadlines (the opt-out path).
func TestPeerZeroTimeoutWrites(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		buf := make([]byte, 64)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()
	p := &peer{id: 0, conn: a, w: bufio.NewWriter(a), timeout: 0}
	if err := p.writeHello(3); err != nil {
		t.Fatal(err)
	}
	if err := p.writeEOS(); err != nil {
		t.Fatal(err)
	}
}

// Property: any batch of tuples survives the wire encoding.
func TestWireRoundTripProperty(t *testing.T) {
	f := func(keys []uint16, vals []int32) bool {
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		in := make([]tuple.Tuple, n)
		for i := 0; i < n; i++ {
			in[i] = tuple.Tuple{Key: tuple.Key(keys[i]), Val: int64(vals[i])}
		}
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if writeRawFrame(w, in) != nil || w.Flush() != nil {
			return false
		}
		fr, err := readFrame(bufio.NewReader(&buf))
		if err != nil || len(fr.tuples()) != n {
			return false
		}
		for i := range in {
			if fr.tuples()[i] != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
