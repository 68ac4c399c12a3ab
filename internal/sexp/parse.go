package sexp

import (
	"encoding/base64"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
)

// Limits protecting the parser against hostile input. Proof objects
// arrive from untrusted parties (paper section 4.3), so the parser is
// a security boundary.
const (
	// MaxAtomLen bounds a single atom.
	MaxAtomLen = 1 << 20
	// MaxDepth bounds list nesting. The parser is iterative (an
	// explicit mark stack, not recursion), so a deeply nested hostile
	// payload is rejected by this limit rather than by stack
	// exhaustion of the daemon that parses it.
	MaxDepth = 128
	// MaxTotal bounds the total encoded input accepted.
	MaxTotal = 8 << 20
)

// ErrTruncated is returned when input ends mid-expression.
var ErrTruncated = errors.New("sexp: truncated input")

// arena is the parser's scratch: node slabs the tree is built in and
// a byte slab that decoded atoms (quoted escapes, |base64|, #hex#,
// transport payloads) borrow from. Parsing through a warm arena
// allocates nothing on the happy path.
//
// Everything an arena's parse returns — nodes and atom octets alike —
// borrows from the arena and from the input, so it is valid only
// until the next reset. Parse and ParseOne therefore hand out a
// compact Copy and reset before returning; FrameReader keeps its own
// arena and documents the borrow. An arena is not safe for concurrent
// use.
type arena struct {
	atoms []AtomVal
	lists []ListVal
	elems []Sexp
	stack []Sexp
	marks []int
	buf   []byte
}

// reset invalidates every expression the arena has returned and
// reclaims its scratch for the next parse.
func (a *arena) reset() {
	a.atoms = a.atoms[:0]
	a.lists = a.lists[:0]
	a.elems = a.elems[:0]
	a.stack = a.stack[:0]
	a.marks = a.marks[:0]
	a.buf = a.buf[:0]
}

// arenaPool recycles parse scratch across Parse/ParseOne calls; the
// proof parse of every admit and the directory's request bodies run
// through it.
var arenaPool = sync.Pool{New: func() any { return new(arena) }}

// Parse decodes one S-expression in canonical, transport, or advanced
// form (auto-detected) and returns it along with the number of input
// bytes consumed. The result owns its storage: it shares nothing with
// in or with the parser's scratch.
func Parse(in []byte) (Sexp, int, error) {
	a := arenaPool.Get().(*arena)
	s, n, err := a.parse(in)
	if err == nil {
		s = s.Copy()
	}
	a.reset()
	arenaPool.Put(a)
	return s, n, err
}

// ParseOne is Parse but requires the input to contain exactly one
// expression with nothing but whitespace after it.
func ParseOne(in []byte) (Sexp, error) {
	a := arenaPool.Get().(*arena)
	s, err := a.parseOne(in)
	if err == nil {
		s = s.Copy()
	}
	a.reset()
	arenaPool.Put(a)
	return s, err
}

// parse decodes one expression from in, borrowing octets from in and
// node storage from the arena. Valid until the arena's next reset.
func (a *arena) parse(in []byte) (Sexp, int, error) {
	if len(in) > MaxTotal {
		return nil, 0, fmt.Errorf("sexp: input exceeds %d bytes", MaxTotal)
	}
	pos := skipSpace(in, 0)
	if pos < len(in) && in[pos] == '{' {
		return a.parseTransport(in, pos)
	}
	return a.run(in, pos)
}

// parseOne is parse but requires exactly one expression with nothing
// but whitespace after it.
func (a *arena) parseOne(in []byte) (Sexp, error) {
	s, n, err := a.parse(in)
	if err != nil {
		return nil, err
	}
	for ; n < len(in); n++ {
		if !isSpace(in[n]) {
			return nil, fmt.Errorf("sexp: trailing garbage at byte %d", n)
		}
	}
	return s, nil
}

// parseTransport decodes a {base64} wrapper into the arena's byte
// slab and parses the canonical payload inside it.
func (a *arena) parseTransport(in []byte, pos int) (Sexp, int, error) {
	start := pos
	pos++ // '{'
	end := pos
	for end < len(in) && in[end] != '}' {
		end++
	}
	if end >= len(in) {
		return nil, start, ErrTruncated
	}
	rawStart := len(a.buf)
	for _, c := range in[pos:end] {
		if !isSpace(c) {
			a.buf = append(a.buf, c)
		}
	}
	raw := a.buf[rawStart:]
	decStart := len(a.buf)
	a.buf = grow(a.buf, base64.StdEncoding.DecodedLen(len(raw)))
	// grow may relocate the slab; re-slice raw against the new backing.
	raw = a.buf[rawStart:decStart]
	dst := a.buf[decStart : decStart+base64.StdEncoding.DecodedLen(len(raw))]
	n, err := base64.StdEncoding.Decode(dst, raw)
	if err != nil {
		return nil, start, fmt.Errorf("sexp: bad transport base64: %v", err)
	}
	a.buf = a.buf[:decStart+n]
	s, _, err := a.run(a.buf[decStart:decStart+n], 0)
	if err != nil {
		return nil, start, err
	}
	return s, end + 1, nil
}

// run is the iterative parse loop: '(' pushes a mark, ')' pops one
// and moves the children collected since into an elems window, atoms
// land on the stack. Depth is the mark count, bounded by MaxDepth.
func (a *arena) run(in []byte, pos int) (Sexp, int, error) {
	baseMark := len(a.marks)
	baseStack := len(a.stack)
	fail := func(err error) (Sexp, int, error) {
		a.marks = a.marks[:baseMark]
		a.stack = a.stack[:baseStack]
		return nil, pos, err
	}
	for {
		pos = skipSpace(in, pos)
		if pos >= len(in) {
			return fail(ErrTruncated)
		}
		var node Sexp
		switch c := in[pos]; {
		case c == '(':
			if len(a.marks)-baseMark >= MaxDepth {
				return fail(fmt.Errorf("sexp: nesting exceeds %d", MaxDepth))
			}
			a.marks = append(a.marks, len(a.stack))
			pos++
			continue
		case c == ')':
			if len(a.marks) == baseMark {
				return fail(fmt.Errorf("sexp: unexpected ) at byte %d", pos))
			}
			mark := a.marks[len(a.marks)-1]
			a.marks = a.marks[:len(a.marks)-1]
			start := len(a.elems)
			a.elems = append(a.elems, a.stack[mark:]...)
			a.stack = a.stack[:mark]
			a.lists = append(a.lists, ListVal{elems: a.elems[start:len(a.elems):len(a.elems)]})
			node = &a.lists[len(a.lists)-1]
			pos++
		case c == '[':
			pos++
			hint, np, err := a.atomBody(in, pos)
			if err != nil {
				return fail(err)
			}
			pos = skipSpace(in, np)
			if pos >= len(in) || in[pos] != ']' {
				return fail(fmt.Errorf("sexp: unterminated display hint at byte %d", pos))
			}
			pos = skipSpace(in, pos+1)
			body, np2, err := a.atomBody(in, pos)
			if err != nil {
				return fail(err)
			}
			pos = np2
			a.atoms = append(a.atoms, AtomVal{octets: body, hint: string(hint)})
			node = &a.atoms[len(a.atoms)-1]
		default:
			body, np, err := a.atomBody(in, pos)
			if err != nil {
				return fail(err)
			}
			pos = np
			a.atoms = append(a.atoms, AtomVal{octets: body})
			node = &a.atoms[len(a.atoms)-1]
		}
		if len(a.marks) == baseMark {
			return node, pos, nil
		}
		a.stack = append(a.stack, node)
	}
}

// atomBody parses one atom at pos, handling verbatim (canonical),
// token, quoted-string, |base64| and #hex# forms. Verbatim octets and
// escape-free tokens/strings borrow from in; decoded forms borrow
// from the arena's byte slab.
func (a *arena) atomBody(in []byte, pos int) ([]byte, int, error) {
	if pos >= len(in) {
		return nil, pos, ErrTruncated
	}
	c := in[pos]
	switch {
	case c >= '0' && c <= '9':
		return a.parseVerbatim(in, pos)
	case c == '"':
		return a.parseQuoted(in, pos)
	case c == '|':
		return a.parseBase64(in, pos)
	case c == '#':
		return a.parseHex(in, pos)
	case isTokenChar(c):
		start := pos
		for pos < len(in) && isTokenChar(in[pos]) {
			pos++
		}
		return in[start:pos], pos, nil
	default:
		return nil, pos, fmt.Errorf("sexp: unexpected byte %q at %d", c, pos)
	}
}

// parseVerbatim parses "<len>:<octets>". When the digits are not
// followed by ':', they begin a bare token instead (numbers such as
// "10" inside range tags); canonical encodings always carry the
// colon, so the forms stay unambiguous.
func (a *arena) parseVerbatim(in []byte, pos int) ([]byte, int, error) {
	start := pos
	n := 0
	tooBig := false
	for pos < len(in) && in[pos] >= '0' && in[pos] <= '9' {
		n = n*10 + int(in[pos]-'0')
		if n > MaxAtomLen {
			tooBig = true
			n = MaxAtomLen + 1
		}
		pos++
	}
	if pos >= len(in) || in[pos] != ':' {
		for pos < len(in) && isTokenChar(in[pos]) && in[pos] != ':' {
			pos++
		}
		return in[start:pos], pos, nil
	}
	if tooBig {
		return nil, pos, fmt.Errorf("sexp: atom exceeds %d bytes", MaxAtomLen)
	}
	pos++
	if pos+n > len(in) {
		return nil, pos, ErrTruncated
	}
	return in[pos : pos+n], pos + n, nil
}

func (a *arena) parseQuoted(in []byte, pos int) ([]byte, int, error) {
	pos++ // opening quote
	// Fast path: no escapes before the closing quote borrows from in.
	scan := pos
	for scan < len(in) && in[scan] != '"' && in[scan] != '\\' {
		scan++
	}
	if scan >= len(in) {
		return nil, scan, ErrTruncated
	}
	if in[scan] == '"' {
		if scan-pos > MaxAtomLen {
			return nil, scan, fmt.Errorf("sexp: atom exceeds %d bytes", MaxAtomLen)
		}
		return in[pos:scan], scan + 1, nil
	}
	// Escapes present: decode into the arena slab.
	start := len(a.buf)
	for pos < len(in) {
		c := in[pos]
		switch c {
		case '"':
			pos++
			return a.buf[start:len(a.buf):len(a.buf)], pos, nil
		case '\\':
			pos++
			if pos >= len(in) {
				return nil, pos, ErrTruncated
			}
			switch e := in[pos]; e {
			case 'n':
				a.buf = append(a.buf, '\n')
			case 'r':
				a.buf = append(a.buf, '\r')
			case 't':
				a.buf = append(a.buf, '\t')
			case '"', '\\':
				a.buf = append(a.buf, e)
			default:
				return nil, pos, fmt.Errorf("sexp: bad escape \\%c at byte %d", e, pos)
			}
			pos++
		default:
			a.buf = append(a.buf, c)
			pos++
		}
		if len(a.buf)-start > MaxAtomLen {
			return nil, pos, fmt.Errorf("sexp: atom exceeds %d bytes", MaxAtomLen)
		}
	}
	return nil, pos, ErrTruncated
}

func (a *arena) parseBase64(in []byte, pos int) ([]byte, int, error) {
	pos++ // opening |
	start := pos
	for pos < len(in) && in[pos] != '|' {
		pos++
	}
	if pos >= len(in) {
		return nil, pos, ErrTruncated
	}
	rawStart := len(a.buf)
	for _, c := range in[start:pos] {
		if !isSpace(c) {
			a.buf = append(a.buf, c)
		}
	}
	pos++ // closing |
	rawLen := len(a.buf) - rawStart
	decStart := len(a.buf)
	a.buf = grow(a.buf, base64.StdEncoding.DecodedLen(rawLen))
	raw := a.buf[rawStart:decStart]
	dst := a.buf[decStart : decStart+base64.StdEncoding.DecodedLen(rawLen)]
	n, err := base64.StdEncoding.Decode(dst, raw)
	if err != nil {
		return nil, pos, fmt.Errorf("sexp: bad base64 atom: %v", err)
	}
	a.buf = a.buf[:decStart+n]
	return a.buf[decStart : decStart+n : decStart+n], pos, nil
}

func (a *arena) parseHex(in []byte, pos int) ([]byte, int, error) {
	pos++ // opening #
	start := pos
	for pos < len(in) && in[pos] != '#' {
		pos++
	}
	if pos >= len(in) {
		return nil, pos, ErrTruncated
	}
	rawStart := len(a.buf)
	for _, c := range in[start:pos] {
		if !isSpace(c) {
			a.buf = append(a.buf, c)
		}
	}
	pos++ // closing #
	rawLen := len(a.buf) - rawStart
	decStart := len(a.buf)
	a.buf = grow(a.buf, hex.DecodedLen(rawLen))
	raw := a.buf[rawStart:decStart]
	dst := a.buf[decStart : decStart+hex.DecodedLen(rawLen)]
	if _, err := hex.Decode(dst, raw); err != nil {
		return nil, pos, fmt.Errorf("sexp: bad hex atom: %v", err)
	}
	a.buf = a.buf[:decStart+hex.DecodedLen(rawLen)]
	return dst[:len(dst):len(dst)], pos, nil
}

// grow extends b's capacity by at least n without changing its
// length, relocating at most once.
func grow(b []byte, n int) []byte {
	if cap(b)-len(b) < n {
		nb := make([]byte, len(b), 2*cap(b)+n)
		copy(nb, b)
		return nb
	}
	return b
}

func skipSpace(in []byte, pos int) int {
	for pos < len(in) && isSpace(in[pos]) {
		pos++
	}
	return pos
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}
