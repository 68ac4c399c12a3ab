package sexp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Record framing for append-only logs. A frame is one S-expression
// wrapped in a fixed header so a reader can stream records back out of
// a byte-oriented log and detect exactly where a crash tore the tail:
//
//	4 bytes  big-endian payload length
//	4 bytes  IEEE CRC32 of the payload
//	n bytes  payload (canonical encoding of the expression)
//
// The CRC covers only the payload; a corrupted or half-written length
// shows up as a truncated or oversized frame instead. Readers treat
// anything after the first bad frame as lost (the write that produced
// it never completed), which is the contract certdir's write-ahead log
// relies on.

// FrameHeaderLen is the fixed per-record framing overhead.
const FrameHeaderLen = 8

// ErrFrameCorrupt marks a frame that is present but unusable: a torn
// header, a payload shorter than its declared length, a CRC mismatch,
// or a payload that does not parse as one canonical S-expression.
// io.EOF, by contrast, is returned only at a clean frame boundary.
var ErrFrameCorrupt = errors.New("sexp: corrupt frame")

// AppendFrame appends the framed canonical encoding of e to dst and
// returns the extended slice. The payload is encoded in place after a
// reserved header, so a warm append with spare capacity allocates
// nothing.
func AppendFrame(dst []byte, e Sexp) []byte {
	start := len(dst)
	var hdr [FrameHeaderLen]byte
	dst = append(dst, hdr[:]...)
	dst = e.appendCanonical(dst)
	payload := dst[start+FrameHeaderLen:]
	binary.BigEndian.PutUint32(dst[start:start+4], uint32(len(payload)))
	binary.BigEndian.PutUint32(dst[start+4:start+8], crc32.ChecksumIEEE(payload))
	return dst
}

// FrameReader streams frames with a reusable payload buffer and parse
// arena: a replay loop reading millions of records does a handful of
// allocations total instead of a handful per record.
//
// The expression returned by Next borrows both the reader's payload
// buffer and its arena, so it is valid only until the next call to
// Next; callers that retain a record past that point must Copy() it
// (the typed decoders in cert/core already copy everything they keep).
type FrameReader struct {
	payload []byte
	arena   arena
}

// Next reads one framed expression from r, returning it with the total
// number of bytes consumed. At a clean end of input it returns io.EOF
// with n == 0; a frame that starts but cannot be completed and
// validated returns an error wrapping ErrFrameCorrupt, and the reader
// must discard everything from the frame's first byte on. The returned
// expression is only valid until the following call to Next.
func (fr *FrameReader) Next(r io.Reader) (e Sexp, n int, err error) {
	var hdr [FrameHeaderLen]byte
	hn, err := io.ReadFull(r, hdr[:])
	if err == io.EOF {
		return nil, 0, io.EOF
	}
	if err != nil {
		return nil, hn, fmt.Errorf("%w: torn header (%d of %d bytes)", ErrFrameCorrupt, hn, FrameHeaderLen)
	}
	size := binary.BigEndian.Uint32(hdr[0:4])
	if size > MaxTotal {
		return nil, hn, fmt.Errorf("%w: payload length %d exceeds %d", ErrFrameCorrupt, size, MaxTotal)
	}
	if cap(fr.payload) < int(size) {
		fr.payload = make([]byte, size)
	}
	payload := fr.payload[:size]
	pn, err := io.ReadFull(r, payload)
	if err != nil {
		return nil, hn + pn, fmt.Errorf("%w: torn payload (%d of %d bytes)", ErrFrameCorrupt, pn, size)
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.BigEndian.Uint32(hdr[4:8]); got != want {
		return nil, hn + pn, fmt.Errorf("%w: CRC mismatch (%08x != %08x)", ErrFrameCorrupt, got, want)
	}
	fr.arena.reset()
	if e, err = fr.arena.parseOne(payload); err != nil {
		return nil, hn + pn, fmt.Errorf("%w: %v", ErrFrameCorrupt, err)
	}
	return e, hn + pn, nil
}
