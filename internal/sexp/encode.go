package sexp

import (
	"encoding/base64"
	"fmt"
	"sync"
)

// Encoding is append-based: every node knows how to append its
// canonical and advanced forms onto a caller's buffer, Canonical()
// allocates exactly once at the size FormatLen precomputes, and
// hashing and transport encoding borrow pooled scratch so a warm call
// allocates at most its result.

// bufPool recycles encode scratch. Buffers are stored via pointer so
// Put does not allocate a slice header box.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

func getBuf() []byte {
	return (*bufPool.Get().(*[]byte))[:0]
}

func putBuf(b []byte) {
	if cap(b) > MaxTotal {
		return // don't park pathological buffers in the pool
	}
	bufPool.Put(&b)
}

// transportOf builds the transport encoding: the canonical form,
// base64-encoded and wrapped in braces. Transport form survives
// transfer through protocols that mangle binary data (HTTP headers,
// mail, cut-and-paste), per section 2.4 of the paper.
func transportOf(s Sexp) []byte {
	can := getBuf()
	can = s.appendCanonical(can)
	out := make([]byte, base64.StdEncoding.EncodedLen(len(can))+2)
	out[0] = '{'
	base64.StdEncoding.Encode(out[1:], can)
	out[len(out)-1] = '}'
	putBuf(can)
	return out
}

// appendAdvancedAtom appends one atom body in advanced form: token
// atoms bare, printable atoms quoted, binary atoms |base64|.
func appendAdvancedAtom(dst, b []byte) []byte {
	switch {
	case isToken(b):
		return append(dst, b...)
	case isQuotable(b):
		dst = append(dst, '"')
		for _, c := range b {
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, c)
			}
		}
		return append(dst, '"')
	default:
		dst = append(dst, '|')
		dst = base64.StdEncoding.AppendEncode(dst, b)
		return append(dst, '|')
	}
}

// isToken reports whether b may be written as a bare token: nonempty,
// starts with a non-digit token char, contains only token chars.
func isToken(b []byte) bool {
	if len(b) == 0 {
		return false
	}
	if b[0] >= '0' && b[0] <= '9' {
		return false
	}
	for _, c := range b {
		if !isTokenChar(c) {
			return false
		}
	}
	return true
}

func isTokenChar(c byte) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		return true
	}
	switch c {
	case '-', '.', '/', '_', ':', '*', '+', '=':
		return true
	}
	return false
}

func isQuotable(b []byte) bool {
	for _, c := range b {
		if c < 0x20 && c != '\n' && c != '\r' && c != '\t' {
			return false
		}
		if c >= 0x7f {
			return false
		}
	}
	return true
}

// validateLen reports when FormatLen disagrees with the materialized
// canonical length; the tests run every shape through it.
func validateLen(s Sexp) error {
	if got, want := len(s.Canonical()), s.FormatLen(); got != want {
		return fmt.Errorf("sexp: FormatLen mismatch got %d want %d", want, got)
	}
	return nil
}
