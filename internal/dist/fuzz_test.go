package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"parallelagg/internal/tuple"
)

// encodeRawFrame builds a valid raw frame for seeding the fuzzer.
// Writing to a bytes.Buffer cannot fail.
func encodeRawFrame(ts []tuple.Tuple) []byte {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeRawFrame(w, ts); err != nil {
		panic(err)
	}
	w.Flush()
	return buf.Bytes()
}

// mustFrame unwraps an encoder result for seeding (seed batches are
// always under the record bound).
func mustFrame(b []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return b
}

func encodePartialFrame(ps []tuple.Partial) []byte {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writePartialFrame(w, ps); err != nil {
		panic(err)
	}
	w.Flush()
	return buf.Bytes()
}

// decodeTwice decodes the body of a data frame twice through one reused
// holder, the way a pooled holder serves frame after frame. Whatever the
// input, a decode may leave the holder larger than allocChunk records
// only once more records than that really arrived, so a failed or forged
// decode (a huge count with no body) keeps the holder small; and the
// second decode must match the first.
func decodeTwice(t *testing.T, data []byte, hdrSize int) {
	if len(data) < hdrSize {
		return
	}
	kind := frameKind(data[0])
	count := int(binary.LittleEndian.Uint32(data[hdrSize-4 : hdrSize]))
	if count > maxFrameRecords {
		return
	}
	body := data[hdrSize:]
	switch kind {
	case frameRaw:
		var h rawHolder
		decodeTwiceInto(t, body, kind, count, &h.ts, h.decode)
	case framePartial:
		var h partHolder
		decodeTwiceInto(t, body, kind, count, &h.ps, h.decode)
	}
}

func decodeTwiceInto[T comparable](t *testing.T, body []byte, kind frameKind, count int, recs *[]T, decode func(*bufio.Reader, int) error) {
	var first []T
	var firstErr error
	for i := range 2 {
		err := decode(bufio.NewReader(bytes.NewReader(body)), count)
		if len(*recs) <= allocChunk && cap(*recs) > allocChunk {
			t.Fatalf("decode %d of kind %d claiming %d records: %d arrived, holder capacity %d exceeds allocChunk",
				i, kind, count, len(*recs), cap(*recs))
		}
		if i == 0 {
			first, firstErr = slices.Clone(*recs), err
			continue
		}
		if (err == nil) != (firstErr == nil) || !slices.Equal(*recs, first) {
			t.Fatalf("second decode through the reused holder differs: %d records (err %v), first %d (err %v)",
				len(*recs), err, len(first), firstErr)
		}
	}
}

// retired returns frame with its kind byte replaced by a retired kind:
// kinds 11 and 12 were the columnar layout, and every reader must now
// reject them without panicking.
func retired(frame []byte, kind byte) []byte {
	frame[0] = kind
	return frame
}

// FuzzDecodeFrame throws arbitrary bytes at the wire decoder. The
// invariants: readFrame never panics; a decoded frame is well-formed
// (known kind, record counts within the protocol bound, control frames
// empty); a successful decode re-encodes to bytes that decode to the
// same frame (round-trip stability); and decoding twice through one
// reused holder gives the same records without growing the holder past
// allocChunk on a forged count (decodeTwice). Truncated or oversized
// length prefixes must surface as errors, not panics or giant
// allocations — the chunked-allocation guard exists for exactly the
// inputs this fuzzer generates.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{byte(frameEOS), 0, 0, 0, 0})
	f.Add([]byte{byte(frameEOP), 0, 0, 0, 0})
	f.Add([]byte{byte(frameRaw), 255, 255, 255, 255})  // absurd count, no data
	f.Add([]byte{byte(framePartial), 0, 0, 16, 0})     // 1M partials claimed, none sent
	f.Add([]byte{byte(frameRaw), 2, 0, 0, 0, 1, 2, 3}) // truncated records
	f.Add([]byte{9, 1, 0, 0, 0})                       // unknown kind
	f.Add(encodeRawFrame([]tuple.Tuple{{Key: 1, Val: -7}, {Key: 99, Val: 42}}))
	f.Add(encodePartialFrame([]tuple.Partial{{Key: 3, State: tuple.NewState(5)}}))
	f.Add([]byte{11, 0, 0, 16, 0}) // retired kind, forged count, no body
	f.Add([]byte{12, 2, 0, 0, 0})  // retired kind, truncated body
	f.Add(retired(encodeRawFrame([]tuple.Tuple{{Key: 8, Val: -1}, {Key: 9, Val: 2}}), 11))
	f.Add(retired(encodePartialFrame([]tuple.Partial{{Key: 4, State: tuple.NewState(6)}}), 12))

	f.Fuzz(func(t *testing.T, data []byte) {
		decodeTwice(t, data, 5)
		fr, err := readFrame(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		switch fr.kind {
		case frameRaw, framePartial, frameEOS, frameEOP:
		default:
			t.Fatalf("decoded frame has unknown kind %d", fr.kind)
		}
		if len(fr.tuples()) > maxFrameRecords || len(fr.partials()) > maxFrameRecords {
			t.Fatalf("decoded frame exceeds maxFrameRecords: %d raw, %d partials", len(fr.tuples()), len(fr.partials()))
		}
		if (fr.kind == frameEOS || fr.kind == frameEOP) && (len(fr.tuples()) != 0 || len(fr.partials()) != 0) {
			t.Fatalf("control frame %d decoded with records", fr.kind)
		}
		if fr.kind == frameRaw && len(fr.partials()) != 0 || fr.kind == framePartial && len(fr.tuples()) != 0 {
			t.Fatalf("frame kind %d decoded with records of the other kind", fr.kind)
		}

		// Round-trip: re-encode the decoded frame and decode it again.
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		var werr error
		switch fr.kind {
		case frameRaw:
			werr = writeRawFrame(w, fr.tuples())
		case framePartial:
			werr = writePartialFrame(w, fr.partials())
		case frameEOS:
			werr = writeEOSFrame(w)
		case frameEOP:
			werr = writeEOPFrame(w)
		}
		if werr != nil {
			t.Fatalf("re-encode of decoded frame failed: %v", werr)
		}
		w.Flush()
		fr2, err := readFrame(bufio.NewReader(bytes.NewReader(buf.Bytes())))
		if err != nil {
			t.Fatalf("re-decode of re-encoded frame failed: %v", err)
		}
		if fr2.kind != fr.kind || len(fr2.tuples()) != len(fr.tuples()) || len(fr2.partials()) != len(fr.partials()) {
			t.Fatalf("round trip changed the frame: kind %d→%d, %d→%d raw, %d→%d partials",
				fr.kind, fr2.kind, len(fr.tuples()), len(fr2.tuples()), len(fr.partials()), len(fr2.partials()))
		}
		for i := range fr.tuples() {
			if fr2.tuples()[i] != fr.tuples()[i] {
				t.Fatalf("round trip changed raw record %d: %v → %v", i, fr.tuples()[i], fr2.tuples()[i])
			}
		}
		for i := range fr.partials() {
			if fr2.partials()[i] != fr.partials()[i] {
				t.Fatalf("round trip changed partial record %d: %v → %v", i, fr.partials()[i], fr2.partials()[i])
			}
		}
	})
}

// FuzzDecodeTFrame is FuzzDecodeFrame for the tolerant dialect's reader,
// readTFrame, with the same invariants; the round trip also keeps the
// stream tag, and a control frame's immediate.
func FuzzDecodeTFrame(f *testing.F) {
	hdr := func(kind frameKind, origin, epoch int, aux uint32, count int) []byte {
		b := make([]byte, tHeaderSize)
		putTHeader(b, kind, origin, epoch, aux, count)
		return b
	}
	f.Add([]byte{})
	f.Add(hdr(frameEOS, 2, 1, 0, 0))
	f.Add(hdr(frameHeartbeat, 1, 0, 750, 0))
	f.Add(hdr(frameAssign, 3, 2, 1|assignDeadFlag, 0))
	f.Add(hdr(frameRaw, 0, 0, 0, maxFrameRecords))    // forged count, no body
	f.Add(hdr(framePartial, 0, 0, 0, 1<<24))          // count over the bound
	f.Add(append(hdr(frameRaw, 1, 0, 0, 2), 1, 2, 3)) // truncated records
	f.Add(hdr(99, 0, 0, 0, 0))                        // unknown kind
	f.Add(mustFrame(tRawFrame(3, 2, []tuple.Tuple{{Key: 1, Val: -7}, {Key: 99, Val: 42}})))
	f.Add(mustFrame(tPartialFrame(1, 0, []tuple.Partial{{Key: 3, State: tuple.NewState(5)}})))
	f.Add(retired(mustFrame(tRawFrame(0, 1, []tuple.Tuple{{Key: 8, Val: -1}, {Key: 9, Val: 2}})), 11))
	f.Add(retired(mustFrame(tPartialFrame(2, 3, []tuple.Partial{{Key: 4, State: tuple.NewState(6)}})), 12))

	f.Fuzz(func(t *testing.T, data []byte) {
		decodeTwice(t, data, tHeaderSize)
		fr, err := readTFrame(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		control := false
		switch fr.kind {
		case frameRaw, framePartial:
		case frameEOS, frameEOP, frameHeartbeat, frameSuspect, frameAssign, frameEvict, frameDone, frameFinish:
			control = true
		default:
			t.Fatalf("decoded frame has unknown kind %d", fr.kind)
		}
		if fr.records() > maxFrameRecords {
			t.Fatalf("decoded frame exceeds maxFrameRecords: %d records", fr.records())
		}
		if control && (fr.raw != nil || fr.part != nil) {
			t.Fatalf("control frame %d decoded with records", fr.kind)
		}
		if fr.kind == frameRaw && fr.part != nil || fr.kind == framePartial && fr.raw != nil {
			t.Fatalf("frame kind %d decoded with records of the other kind", fr.kind)
		}

		// Round-trip: re-encode the decoded frame and decode it again.
		var b []byte
		var werr error
		switch fr.kind {
		case frameRaw:
			b, werr = tRawFrame(fr.origin, fr.epoch, fr.tuples())
		case framePartial:
			b, werr = tPartialFrame(fr.origin, fr.epoch, fr.partials())
		default:
			var buf bytes.Buffer
			w := bufio.NewWriter(&buf)
			werr = writeTControl(w, fr.kind, fr.origin, fr.epoch, fr.aux)
			b = buf.Bytes()
		}
		if werr != nil {
			t.Fatalf("re-encode of decoded frame failed: %v", werr)
		}
		fr2, err := readTFrame(bufio.NewReader(bytes.NewReader(b)))
		if err != nil {
			t.Fatalf("re-decode of re-encoded frame failed: %v", err)
		}
		if fr2.kind != fr.kind || fr2.stream() != fr.stream() || control && fr2.aux != fr.aux {
			t.Fatalf("round trip changed the header: kind %d→%d, stream %v→%v, aux %d→%d",
				fr.kind, fr2.kind, fr.stream(), fr2.stream(), fr.aux, fr2.aux)
		}
		if !slices.Equal(fr2.tuples(), fr.tuples()) || !slices.Equal(fr2.partials(), fr.partials()) {
			t.Fatalf("round trip changed the records: %d→%d raw, %d→%d partials",
				len(fr.tuples()), len(fr2.tuples()), len(fr.partials()), len(fr2.partials()))
		}
	})
}
