package sexp

import (
	"bytes"
	"encoding/base64"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"testing"
)

// This file pins the typed arena parser and append-based encoder to
// the recursive parser and bytes.Buffer encoder they replaced. The
// reference implementation below is a test-local copy of the old
// code (pointer tree, one allocation per node): the fuzzer asserts
// that on every input both parsers agree on accept/reject, and that
// accepted expressions produce byte-identical canonical, transport,
// and advanced encodings. One deliberate delta is folded in: the old
// parser checked depth on entry to each recursive call, which let an
// empty list sit one level below MaxDepth; the new parser bounds open
// parens uniformly, and the reference mirrors that.

// refSexp is the old pointer-tree node.
type refSexp struct {
	isList bool
	octets []byte
	hint   string
	list   []*refSexp
}

type refParser struct {
	in  []byte
	pos int
}

func refParseOne(in []byte) (*refSexp, error) {
	s, n, err := refParse(in)
	if err != nil {
		return nil, err
	}
	for ; n < len(in); n++ {
		if !refIsSpace(in[n]) {
			return nil, fmt.Errorf("ref: trailing garbage at byte %d", n)
		}
	}
	return s, nil
}

func refParse(in []byte) (*refSexp, int, error) {
	if len(in) > MaxTotal {
		return nil, 0, fmt.Errorf("ref: input exceeds %d bytes", MaxTotal)
	}
	p := &refParser{in: in}
	p.skipSpace()
	if p.pos < len(p.in) && p.in[p.pos] == '{' {
		return p.parseTransport()
	}
	s, err := p.parse(0)
	if err != nil {
		return nil, p.pos, err
	}
	return s, p.pos, nil
}

func (p *refParser) parseTransport() (*refSexp, int, error) {
	start := p.pos
	p.pos++ // '{'
	end := p.pos
	for end < len(p.in) && p.in[end] != '}' {
		end++
	}
	if end >= len(p.in) {
		return nil, start, ErrTruncated
	}
	raw := make([]byte, 0, end-p.pos)
	for _, c := range p.in[p.pos:end] {
		if !refIsSpace(c) {
			raw = append(raw, c)
		}
	}
	dec := make([]byte, base64.StdEncoding.DecodedLen(len(raw)))
	n, err := base64.StdEncoding.Decode(dec, raw)
	if err != nil {
		return nil, start, fmt.Errorf("ref: bad transport base64: %v", err)
	}
	inner := &refParser{in: dec[:n]}
	s, err := inner.parse(0)
	if err != nil {
		return nil, start, err
	}
	p.pos = end + 1
	return s, p.pos, nil
}

func (p *refParser) parse(depth int) (*refSexp, error) {
	p.skipSpace()
	if p.pos >= len(p.in) {
		return nil, ErrTruncated
	}
	switch c := p.in[p.pos]; {
	case c == '(':
		if depth >= MaxDepth {
			return nil, fmt.Errorf("ref: nesting exceeds %d", MaxDepth)
		}
		p.pos++
		list := []*refSexp{}
		for {
			p.skipSpace()
			if p.pos >= len(p.in) {
				return nil, ErrTruncated
			}
			if p.in[p.pos] == ')' {
				p.pos++
				return &refSexp{isList: true, list: list}, nil
			}
			child, err := p.parse(depth + 1)
			if err != nil {
				return nil, err
			}
			list = append(list, child)
		}
	case c == '[':
		p.pos++
		hint, err := p.parseAtomBody()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.pos >= len(p.in) || p.in[p.pos] != ']' {
			return nil, fmt.Errorf("ref: unterminated display hint at byte %d", p.pos)
		}
		p.pos++
		p.skipSpace()
		body, err := p.parseAtomBody()
		if err != nil {
			return nil, err
		}
		return &refSexp{octets: body, hint: string(hint)}, nil
	default:
		body, err := p.parseAtomBody()
		if err != nil {
			return nil, err
		}
		return &refSexp{octets: body}, nil
	}
}

func (p *refParser) parseAtomBody() ([]byte, error) {
	if p.pos >= len(p.in) {
		return nil, ErrTruncated
	}
	c := p.in[p.pos]
	switch {
	case c >= '0' && c <= '9':
		return p.parseVerbatim()
	case c == '"':
		return p.parseQuoted()
	case c == '|':
		return p.parseBase64()
	case c == '#':
		return p.parseHex()
	case isTokenChar(c):
		start := p.pos
		for p.pos < len(p.in) && isTokenChar(p.in[p.pos]) {
			p.pos++
		}
		return append([]byte(nil), p.in[start:p.pos]...), nil
	default:
		return nil, fmt.Errorf("ref: unexpected byte %q at %d", c, p.pos)
	}
}

func (p *refParser) parseVerbatim() ([]byte, error) {
	start := p.pos
	n := 0
	tooBig := false
	for p.pos < len(p.in) && p.in[p.pos] >= '0' && p.in[p.pos] <= '9' {
		n = n*10 + int(p.in[p.pos]-'0')
		if n > MaxAtomLen {
			tooBig = true
			n = MaxAtomLen + 1
		}
		p.pos++
	}
	if p.pos >= len(p.in) || p.in[p.pos] != ':' {
		for p.pos < len(p.in) && isTokenChar(p.in[p.pos]) && p.in[p.pos] != ':' {
			p.pos++
		}
		return append([]byte(nil), p.in[start:p.pos]...), nil
	}
	if tooBig {
		return nil, fmt.Errorf("ref: atom exceeds %d bytes", MaxAtomLen)
	}
	p.pos++
	if p.pos+n > len(p.in) {
		return nil, ErrTruncated
	}
	out := append([]byte(nil), p.in[p.pos:p.pos+n]...)
	p.pos += n
	return out, nil
}

func (p *refParser) parseQuoted() ([]byte, error) {
	p.pos++ // opening quote
	var out []byte
	for p.pos < len(p.in) {
		c := p.in[p.pos]
		switch c {
		case '"':
			p.pos++
			return out, nil
		case '\\':
			p.pos++
			if p.pos >= len(p.in) {
				return nil, ErrTruncated
			}
			switch e := p.in[p.pos]; e {
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case '"', '\\':
				out = append(out, e)
			default:
				return nil, fmt.Errorf("ref: bad escape \\%c at byte %d", e, p.pos)
			}
			p.pos++
		default:
			out = append(out, c)
			p.pos++
		}
		if len(out) > MaxAtomLen {
			return nil, fmt.Errorf("ref: atom exceeds %d bytes", MaxAtomLen)
		}
	}
	return nil, ErrTruncated
}

func (p *refParser) parseBase64() ([]byte, error) {
	p.pos++ // opening |
	start := p.pos
	for p.pos < len(p.in) && p.in[p.pos] != '|' {
		p.pos++
	}
	if p.pos >= len(p.in) {
		return nil, ErrTruncated
	}
	raw := make([]byte, 0, p.pos-start)
	for _, c := range p.in[start:p.pos] {
		if !refIsSpace(c) {
			raw = append(raw, c)
		}
	}
	p.pos++ // closing |
	dec := make([]byte, base64.StdEncoding.DecodedLen(len(raw)))
	n, err := base64.StdEncoding.Decode(dec, raw)
	if err != nil {
		return nil, fmt.Errorf("ref: bad base64 atom: %v", err)
	}
	return dec[:n], nil
}

func (p *refParser) parseHex() ([]byte, error) {
	p.pos++ // opening #
	start := p.pos
	for p.pos < len(p.in) && p.in[p.pos] != '#' {
		p.pos++
	}
	if p.pos >= len(p.in) {
		return nil, ErrTruncated
	}
	raw := make([]byte, 0, p.pos-start)
	for _, c := range p.in[start:p.pos] {
		if !refIsSpace(c) {
			raw = append(raw, c)
		}
	}
	p.pos++ // closing #
	out := make([]byte, hex.DecodedLen(len(raw)))
	if _, err := hex.Decode(out, raw); err != nil {
		return nil, fmt.Errorf("ref: bad hex atom: %v", err)
	}
	return out, nil
}

func (p *refParser) skipSpace() {
	for p.pos < len(p.in) && refIsSpace(p.in[p.pos]) {
		p.pos++
	}
}

func refIsSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

// refCanonical is the old bytes.Buffer canonical encoder.
func refCanonical(s *refSexp) []byte {
	var buf bytes.Buffer
	refCanonicalTo(&buf, s)
	return buf.Bytes()
}

func refCanonicalTo(buf *bytes.Buffer, s *refSexp) {
	if s == nil {
		return
	}
	if !s.isList {
		if s.hint != "" {
			buf.WriteByte('[')
			refWriteVerbatim(buf, []byte(s.hint))
			buf.WriteByte(']')
		}
		refWriteVerbatim(buf, s.octets)
		return
	}
	buf.WriteByte('(')
	for _, c := range s.list {
		refCanonicalTo(buf, c)
	}
	buf.WriteByte(')')
}

func refWriteVerbatim(buf *bytes.Buffer, b []byte) {
	buf.WriteString(strconv.Itoa(len(b)))
	buf.WriteByte(':')
	buf.Write(b)
}

// FuzzParserEquivalence feeds arbitrary bytes to both parsers. The
// old one defines the language; the new one must accept exactly the
// same inputs and mean the same thing by them, where "the same thing"
// is canonical-form identity (canonical form is injective over the
// value model, so byte equality is value equality). Accepted inputs
// are then pushed around the full encoding cycle: the new encoder's
// canonical, transport, and advanced renderings must each parse —
// under the REFERENCE parser — back to the same canonical bytes,
// which pins encoder output, not just parser behavior. Last, the
// parsed tree must own its storage: overwriting the parsed input
// leaves its canonical form unchanged.
func FuzzParserEquivalence(f *testing.F) {
	seeds := [][]byte{
		[]byte("(3:abc(1:x))"),
		[]byte("()"),
		[]byte("0:"),
		[]byte("(cert (issuer 5:alice) (subject 3:bob))"),
		[]byte(`("quoted string" "with \n escape")`),
		[]byte("(|YWJj| #616263# token)"),
		[]byte("[text/plain]3:abc"),
		[]byte("{KDM6YWJjKQ==}"),
		[]byte("( a ( b ( c ) ) )"),
		[]byte("(10 10:ten bytes!!)"),
		bytes.Repeat([]byte("("), 200),
		append(bytes.Repeat([]byte("("), 127), append([]byte("1:x"), bytes.Repeat([]byte(")"), 127)...)...),
		[]byte("999999999999999999999:x"),
		[]byte("3:ab"),
		[]byte("#zz#"),
		[]byte("|***|"),
		[]byte("(1:a"),
		[]byte("1:a 1:b"),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		ref, refErr := refParseOne(in)
		// Parse a private copy of the input: the last check overwrites it.
		priv := append([]byte(nil), in...)
		got, gotErr := ParseOne(priv)
		if (refErr == nil) != (gotErr == nil) {
			t.Fatalf("accept mismatch on %q: ref err=%v, new err=%v", in, refErr, gotErr)
		}
		if refErr != nil {
			// Both rejected; also agree on truncation vs malformed for
			// the streaming reader's benefit.
			if errors.Is(refErr, ErrTruncated) != errors.Is(gotErr, ErrTruncated) {
				t.Fatalf("truncation mismatch on %q: ref=%v new=%v", in, refErr, gotErr)
			}
			return
		}
		refCan := refCanonical(ref)
		newCan := got.Canonical()
		if !bytes.Equal(refCan, newCan) {
			t.Fatalf("canonical mismatch on %q:\nref  %q\nnew  %q", in, refCan, newCan)
		}
		// Encoder cycle: every rendering the new encoder produces must
		// mean the same value to the old parser.
		for _, enc := range [][]byte{newCan, got.Transport(), got.Advanced()} {
			back, err := refParseOne(enc)
			if err != nil {
				t.Fatalf("ref parser rejects new encoding %q of %q: %v", enc, in, err)
			}
			if !bytes.Equal(refCanonical(back), refCan) {
				t.Fatalf("encoding %q of %q re-parses to %q, want %q",
					enc, in, refCanonical(back), refCan)
			}
		}
		// And the arena parser must agree with itself on its own
		// canonical output (round-trip stability).
		again, err := ParseOne(newCan)
		if err != nil {
			t.Fatalf("new parser rejects own canonical %q: %v", newCan, err)
		}
		if !bytes.Equal(again.Canonical(), newCan) {
			t.Fatalf("canonical not a fixed point: %q -> %q", newCan, again.Canonical())
		}
		// Parse results own their storage: overwriting the parsed
		// bytes must leave the tree unchanged.
		for i := range priv {
			priv[i] = '!'
		}
		if after := got.Canonical(); !bytes.Equal(after, newCan) {
			t.Fatalf("parse of %q aliases its input: canonical %q became %q", in, newCan, after)
		}
	})
}
