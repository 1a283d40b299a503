package dist

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"os"
	"slices"
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
	ts := make([]tuple.Tuple, batch)
	ps := make([]tuple.Partial, batch)
	for i := range ts {
		ts[i] = tuple.Tuple{Key: tuple.Key(i * 7919), Val: int64(i)}
		ps[i] = tuple.Partial{Key: tuple.Key(1<<40 + i*7919), State: tuple.NewState(int64(-i))}
	}
	dialects := []struct {
		name   string
		stream []byte
		read   func(*bufio.Reader) (frame, error)
	}{
		{"fail-fast", slices.Concat(mustFrame(rawFrameInto(nil, ts)), mustFrame(partialFrameInto(nil, ps))), readFrame},
		{"tolerant", slices.Concat(mustFrame(tRawFrameInto(nil, 1, 0, ts)), mustFrame(tPartialFrameInto(nil, 1, 0, ps))),
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
