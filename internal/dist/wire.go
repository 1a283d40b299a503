package dist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"parallelagg/internal/tuple"
)

// Wire protocol: length-delimited frames over TCP.
//
//	hello frame (once per connection):  [u32 srcID]
//	data frame:                         [u8 kind][u32 count][count records]
//
// Raw records are tuple.RawSize bytes, partial records tuple.PartialSize
// bytes, in the same little-endian layout the simulator's pages use. An
// EOS frame has kind frameEOS and count 0.
//
// frameKind is the dispatch tag for both dialects (wire.go and
// twire.go declare its constants). It is marked exhaustive: every
// switch over a frameKind must either handle all declared kinds or
// reject unknown ones with an error-returning default, so adding a
// control frame cannot silently fall through an old dispatch point.
//
//aggvet:exhaustive
type frameKind byte

const (
	frameRaw     frameKind = 1
	framePartial frameKind = 2
	frameEOS     frameKind = 3
	// frameEOP carries Adaptive Repartitioning's end-of-phase broadcast.
	frameEOP frameKind = 4

	// Kinds 5–10 are the tolerant dialect's control frames (twire.go).
	// Kinds 11 and 12 are retired: they were a columnar layout of the raw
	// and partial frames. They stay reserved, and both readers reject them
	// as unknown kinds.
)

// maxFrameRecords bounds a frame so a corrupt length cannot allocate
// unbounded memory. The bound is enforced on BOTH sides of the wire: the
// decoder rejects oversized counts from a hostile or corrupt peer, and
// the frame writers refuse to emit a batch that a conforming decoder
// would reject (a silent >maxFrameRecords write would poison the stream
// for every later frame on the connection).
const maxFrameRecords = 1 << 20

// allocChunk caps the upfront growth of a receive holder while decoding a
// frame. The holder then grows with append only as record bytes actually
// arrive, so a forged header claiming maxFrameRecords records costs a
// holder of at most allocChunk records, not tens of MiB, before the
// connection's read deadline or a short read kills it; the holder goes
// back to its pool no larger than that.
const allocChunk = 4096

// writeHello sends the connection's source node id.
func writeHello(w io.Writer, src int) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(src))
	_, err := w.Write(b[:])
	return err
}

// readHello receives the peer's node id.
func readHello(r io.Reader) (int, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return int(binary.LittleEndian.Uint32(b[:])), nil
}

// headerSize is the size of a fail-fast frame header: kind and count.
const headerSize = 5

func putHeader(b []byte, kind frameKind, count int) {
	b[0] = byte(kind)
	binary.LittleEndian.PutUint32(b[1:headerSize], uint32(count))
}

func writeHeader(w io.Writer, kind frameKind, count int) error {
	var b [headerSize]byte
	putHeader(b[:], kind, count)
	_, err := w.Write(b[:])
	return err
}

// frameBuf returns buf resized to hold need bytes, reallocating only
// when the scratch buffer is too small — the steady state reuses one
// allocation per connection for every frame.
func frameBuf(buf []byte, need int) []byte {
	if cap(buf) < need {
		return make([]byte, need) //aggvet:allow noalloc -- scratch-buffer growth; reallocates only until the per-connection buffer reaches frame size, absent from the steady state
	}
	return buf[:need]
}

// rawFrameInto encodes a raw frame's records into buf after a header of
// hdr bytes, growing buf if needed, and returns the frame. The caller
// fills in the header: putHeader in the fail-fast dialect, putTHeader in
// the tolerant one. It refuses a batch larger than maxFrameRecords.
//
//aggvet:noalloc
func rawFrameInto(buf []byte, hdr int, ts []tuple.Tuple) ([]byte, error) {
	if len(ts) > maxFrameRecords {
		return buf, fmt.Errorf("dist: raw frame of %d records exceeds the %d-record wire limit", len(ts), maxFrameRecords) //aggvet:allow noalloc -- cold path: the oversized batch is refused, never encoded
	}
	buf = frameBuf(buf, hdr+len(ts)*tuple.RawSize)
	off := hdr
	for _, t := range ts {
		tuple.EncodeRaw(buf[off:off+tuple.RawSize], t)
		off += tuple.RawSize
	}
	return buf, nil
}

// partialFrameInto encodes a partial frame's records after a header of
// hdr bytes, with the same contract as rawFrameInto.
//
//aggvet:noalloc
func partialFrameInto(buf []byte, hdr int, ps []tuple.Partial) ([]byte, error) {
	if len(ps) > maxFrameRecords {
		return buf, fmt.Errorf("dist: partial frame of %d records exceeds the %d-record wire limit", len(ps), maxFrameRecords) //aggvet:allow noalloc -- cold path: the oversized batch is refused, never encoded
	}
	buf = frameBuf(buf, hdr+len(ps)*tuple.PartialSize)
	off := hdr
	for _, pt := range ps {
		tuple.EncodePartial(buf[off:off+tuple.PartialSize], pt)
		off += tuple.PartialSize
	}
	return buf, nil
}

// writeEOSFrame signals end of stream and flushes.
func writeEOSFrame(w *bufio.Writer) error {
	if err := writeHeader(w, frameEOS, 0); err != nil {
		return err
	}
	return w.Flush()
}

// writeEOPFrame broadcasts Adaptive Repartitioning's end-of-phase signal
// and flushes so it is not stuck behind buffered data.
func writeEOPFrame(w *bufio.Writer) error {
	if err := writeHeader(w, frameEOP, 0); err != nil {
		return err
	}
	return w.Flush()
}

// peer is one outgoing connection: the conn for deadline control, the
// buffered writer for framing, and the per-frame write timeout. Every
// write arms a fresh deadline, so a peer that stops draining its socket
// (backpressure hang) fails the write within timeout instead of blocking
// the scan forever.
type peer struct {
	id      int
	conn    net.Conn
	w       *bufio.Writer
	timeout time.Duration
	m       *metrics // nil when metrics are disabled
	// buf is the frame-encoding scratch buffer: each data frame is
	// encoded here in full and handed to the writer as one Write, so the
	// steady state is one buffer allocation per connection, not one
	// record-sized Write per tuple.
	buf []byte
}

func (p *peer) arm() {
	if p.timeout > 0 {
		p.conn.SetWriteDeadline(time.Now().Add(p.timeout))
	}
}

// count wraps a frame write with the send-side metrics: bytes and
// frames on success, deadline classification on failure.
func (p *peer) count(kind frameKind, records int, err error) error {
	if err != nil {
		p.m.ioError(PhaseWrite, err)
		return err
	}
	p.m.sent(p.id, kind, records)
	return nil
}

func (p *peer) writeHello(src int) error {
	p.arm()
	if err := writeHello(p.w, src); err != nil {
		return p.count(frameHello, 0, err)
	}
	// Flush so the hello doubles as a handshake: the accept side can
	// identify the peer (and apply its read deadline) immediately instead
	// of waiting for the first data flush.
	return p.count(frameHello, 0, p.w.Flush())
}

func (p *peer) writeRaw(ts []tuple.Tuple) error {
	var err error
	p.buf, err = rawFrameInto(p.buf, headerSize, ts)
	return p.writeData(frameRaw, len(ts), err)
}

func (p *peer) writePartials(ps []tuple.Partial) error {
	var err error
	p.buf, err = partialFrameInto(p.buf, headerSize, ps)
	return p.writeData(framePartial, len(ps), err)
}

// writeData heads the data frame of count records encoded in p.buf,
// unless encoding it failed with err, and hands it to the writer.
func (p *peer) writeData(kind frameKind, count int, err error) error {
	if err == nil {
		putHeader(p.buf, kind, count)
		p.arm()
		_, err = p.w.Write(p.buf)
	}
	return p.count(kind, count, err)
}

func (p *peer) writeEOS() error {
	p.arm()
	return p.count(frameEOS, 0, writeEOSFrame(p.w))
}

func (p *peer) writeEOP() error {
	p.arm()
	return p.count(frameEOP, 0, writeEOPFrame(p.w))
}

// frame is one decoded wire frame. A data frame's records live in a
// pooled holder, raw for a raw frame and part for a partial frame;
// the merge side Puts that holder back to its pool once it has folded
// the records. Control frames carry neither.
type frame struct {
	kind frameKind
	raw  *rawHolder
	part *partHolder
}

// records returns the number of records f carries.
func (f frame) records() int {
	switch {
	case f.raw != nil:
		return len(f.raw.ts)
	case f.part != nil:
		return len(f.part.ps)
	default:
		return 0
	}
}

// rawHolder and partHolder are the receive buffers of both dialects: the
// decoded records of one data frame. Frame readers Get a holder for every
// data frame and decode into it from length zero, reusing its capacity;
// the merge side folds the records and Puts the holder back. The pools
// are process-wide, like the live exchange's, so a node reuses what
// earlier queries returned. Senders cut frames at Config.Batch records,
// so a holder's capacity stays near Batch.
type rawHolder struct{ ts []tuple.Tuple }
type partHolder struct{ ps []tuple.Partial }

var (
	rawHolders  = sync.Pool{New: func() any { return new(rawHolder) }}
	partHolders = sync.Pool{New: func() any { return new(partHolder) }}
)

// decode replaces h's records with the count raw records of a frame read
// from r.
func (h *rawHolder) decode(r *bufio.Reader, count int) error {
	var err error
	h.ts, err = readRecords(r, slices.Grow(h.ts[:0], min(count, allocChunk)), count, tuple.RawSize, tuple.DecodeRaw)
	return err
}

// decode replaces h's records with the count partial records of a frame
// read from r.
func (h *partHolder) decode(r *bufio.Reader, count int) error {
	var err error
	h.ps, err = readRecords(r, slices.Grow(h.ps[:0], min(count, allocChunk)), count, tuple.PartialSize, tuple.DecodePartial)
	return err
}

// readRecords appends count fixed-width records of size bytes from r to
// dst, decoding every whole record the reader has buffered in one pass.
// dst grows only as record bytes arrive.
func readRecords[T any](r *bufio.Reader, dst []T, count, size int, decode func([]byte) T) ([]T, error) {
	for count > 0 {
		if _, err := r.Peek(size); err != nil {
			return dst, err
		}
		n := min(count, r.Buffered()/size)
		b, _ := r.Peek(n * size)
		for off := 0; off < len(b); off += size {
			dst = append(dst, decode(b[off:off+size]))
		}
		r.Discard(len(b)) // cannot fail: b is buffered
		count -= n
	}
	return dst, nil
}

// readHeader reads a frame header of len(hdr) bytes from r into hdr.
// Going through Peek rather than io.ReadFull keeps hdr on the stack.
func readHeader(r *bufio.Reader, hdr []byte) error {
	b, err := r.Peek(len(hdr))
	if err != nil {
		return err
	}
	copy(hdr, b)
	_, err = r.Discard(len(hdr))
	return err
}

// readData decodes the count records of a data frame of the given kind
// into a holder from its pool. On a decode error the holder goes straight
// back to the pool.
func readData(r *bufio.Reader, kind frameKind, count int) (frame, error) {
	if kind == frameRaw {
		h := rawHolders.Get().(*rawHolder)
		if err := h.decode(r, count); err != nil {
			rawHolders.Put(h)
			return frame{}, err
		}
		return frame{kind: kind, raw: h}, nil
	}
	h := partHolders.Get().(*partHolder)
	if err := h.decode(r, count); err != nil {
		partHolders.Put(h)
		return frame{}, err
	}
	return frame{kind: kind, part: h}, nil
}

// readFrame decodes the next frame.
func readFrame(r *bufio.Reader) (frame, error) {
	var hdr [headerSize]byte
	if err := readHeader(r, hdr[:]); err != nil {
		return frame{}, err
	}
	kind := frameKind(hdr[0])
	count := int(binary.LittleEndian.Uint32(hdr[1:]))
	if count < 0 || count > maxFrameRecords {
		return frame{}, fmt.Errorf("dist: frame count %d out of range", count)
	}
	switch kind {
	case frameEOS, frameEOP:
		if count != 0 {
			return frame{}, fmt.Errorf("dist: control frame %d with count %d", kind, count)
		}
		return frame{kind: kind}, nil
	case frameRaw, framePartial:
		return readData(r, kind, count)
	default:
		return frame{}, fmt.Errorf("dist: unknown frame kind %d", kind)
	}
}
