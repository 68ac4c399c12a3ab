package sexp

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	exprs := []Sexp{
		String("hello"),
		List(String("cert"), Atom([]byte{0, 1, 2, 0xff})),
		List(String("nested"), List(String("a"), String("b")), HintedAtom("text/plain", []byte("x"))),
	}
	var buf []byte
	for _, e := range exprs {
		buf = AppendFrame(buf, e)
	}
	r := bytes.NewReader(buf)
	var fr FrameReader
	var got []Sexp // kept past the next Next, so copied
	total := 0
	for i := range exprs {
		e, n, err := fr.Next(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got = append(got, e.Copy())
		total += n
	}
	for i, want := range exprs {
		if !Equal(got[i], want) {
			t.Fatalf("frame %d: got %s want %s", i, got[i], want)
		}
	}
	if total != len(buf) {
		t.Fatalf("consumed %d of %d bytes", total, len(buf))
	}
	if _, n, err := fr.Next(r); err != io.EOF || n != 0 {
		t.Fatalf("at end: n=%d err=%v, want clean EOF", n, err)
	}
}

func TestFrameTornTail(t *testing.T) {
	full := AppendFrame(AppendFrame(nil, String("first")), List(String("second"), String("payload")))
	// Cut at every point inside the second frame: the first must still
	// read cleanly, the second must report corruption, never EOF.
	firstLen := len(AppendFrame(nil, String("first")))
	for cut := firstLen + 1; cut < len(full); cut++ {
		r := bytes.NewReader(full[:cut])
		var fr FrameReader
		if _, _, err := fr.Next(r); err != nil {
			t.Fatalf("cut %d: first frame: %v", cut, err)
		}
		_, _, err := fr.Next(r)
		if !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("cut %d: second frame err = %v, want ErrFrameCorrupt", cut, err)
		}
	}
}

func TestFrameReaderStreams(t *testing.T) {
	// FrameReader recycles its buffers across records of every size, and
	// each returned expression is only valid until the next call — so
	// consume it before advancing.
	var buf []byte
	var want []Sexp
	for i := 0; i < 50; i++ {
		e := List(String("rec"), Atom(bytes.Repeat([]byte{byte(i)}, i)))
		want = append(want, e)
		buf = AppendFrame(buf, e)
	}
	r := bytes.NewReader(buf)
	var fr FrameReader
	for i, w := range want {
		got, _, err := fr.Next(r)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !Equal(got, w) {
			t.Fatalf("record %d: got %s want %s", i, got, w)
		}
	}
	if _, n, err := fr.Next(r); err != io.EOF || n != 0 {
		t.Fatalf("at end: n=%d err=%v, want clean EOF", n, err)
	}
}

func TestFrameCRCMismatch(t *testing.T) {
	buf := AppendFrame(nil, String("checksummed"))
	buf[len(buf)-1] ^= 0x40 // flip a payload bit; header CRC now disagrees
	if _, _, err := new(FrameReader).Next(bytes.NewReader(buf)); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("err = %v, want ErrFrameCorrupt", err)
	}
}

func TestFrameOversizedLength(t *testing.T) {
	buf := AppendFrame(nil, String("x"))
	buf[0] = 0xff // declared length far beyond MaxTotal
	if _, _, err := new(FrameReader).Next(bytes.NewReader(buf)); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("err = %v, want ErrFrameCorrupt", err)
	}
}
