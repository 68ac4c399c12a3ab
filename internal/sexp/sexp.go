// Package sexp implements SPKI S-expressions as specified in Rivest's
// S-expression Internet draft, the wire language of the Snowflake
// authorization system (Howell & Kotz, OSDI 2000, section 2.4).
//
// An S-expression is either an octet-string atom or a list of
// S-expressions. Three encodings are supported:
//
//   - canonical: unambiguous, used for hashing and signing
//     ("(3:abc(1:x))" style verbatim length-prefixed atoms);
//   - transport: base64 of the canonical form wrapped in braces;
//   - advanced: human-readable tokens, quoted strings, |base64| and
//     #hex# atoms, used in examples and debugging output.
//
// Atoms may carry a display hint ("[text/plain]3:abc"), preserved by
// all encoders.
//
// # Representation
//
// Sexp is a small interface over three concrete node types: *AtomVal
// (an octet-string atom), *ListVal (a list of children), and *RawVal
// (a pre-encoded canonical span that re-encodes by memcpy). The
// implementations are sealed to this package, so every node obeys the
// encoding invariants.
//
// # Buffer ownership
//
// Parse results are owned: Parse and ParseOne build the tree in a
// pooled scratch arena private to this package and return a compact
// Copy of it, so nothing they return aliases the input or the pool.
// The one borrow is FrameReader.Next, whose record shares the reader's
// payload buffer and arena until the next call to Next; callers that
// retain a record past that point must Copy it. The constructors
// (Atom, String, List, ...) always build owned nodes.
package sexp

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sort"
	"strconv"
	"unsafe"
)

// Sexp is a single S-expression node: an atom holding octets, or a
// list of children. Implementations are sealed to this package; the
// zero of usefulness is the nil interface, which Nth/Child/Path
// return for missing nodes.
type Sexp interface {
	// IsAtom reports whether the node is an atom.
	IsAtom() bool
	// IsList reports whether the node is a list.
	IsList() bool
	// Len returns the number of children of a list, or 0 for an atom.
	Len() int
	// Nth returns the i'th child of a list, or nil when out of range
	// or when the node is an atom.
	Nth(i int) Sexp
	// Bytes returns the atom octets (nil for lists). The slice may
	// borrow from a FrameReader; see the package comment.
	Bytes() []byte
	// Hint returns the optional display hint of an atom ("" when
	// absent, and always "" for lists).
	Hint() string
	// Tag returns the octets of the first child when it is an atom,
	// which by SPKI convention names the type of a list expression
	// ("cert", "tag", "public-key", ...). It returns "" for atoms,
	// empty lists, and lists whose first element is itself a list.
	Tag() string
	// Text returns the atom octets as a string ("" for lists).
	Text() string
	// Copy returns a deep copy with owned storage, safe to retain
	// after the original's backing buffer or FrameReader is reused.
	Copy() Sexp
	// Hash returns the SHA-256 hash of the canonical encoding. Two
	// expressions hash equal exactly when Equal reports true.
	Hash() [32]byte
	// Key returns the canonical encoding as a string, suitable for
	// use as a map key.
	Key() string
	// Canonical returns the canonical encoding, the input to hashing
	// and signing. The result is freshly allocated at exact size.
	Canonical() []byte
	// Transport returns the canonical form base64-encoded and wrapped
	// in braces.
	Transport() []byte
	// Advanced returns the human-readable advanced encoding.
	Advanced() []byte
	// FormatLen returns the canonical encoding length without
	// materializing the encoding.
	FormatLen() int
	// SortChildren sorts the children of a list (after the leading
	// type atom, if any) by canonical encoding; no-op on atoms. It is
	// used to canonicalize set-valued expressions.
	SortChildren()
	// Path walks a list expression by type tags:
	// Path("cert","issuer") returns the first child list tagged
	// "issuer" of the first child list tagged "cert", or nil when any
	// step is missing.
	Path(tags ...string) Sexp
	// Child returns the first child list tagged tag, or nil.
	Child(tag string) Sexp
	// MustText returns the atom text of the i'th child or an error
	// naming what was expected; a convenience for decoding
	// fixed-shape lists.
	MustText(i int, what string) (string, error)
	// String renders the expression in advanced form for debugging.
	String() string

	// appendCanonical appends the canonical encoding to dst. Sealed:
	// only in-package implementations exist, so AppendFrame and the
	// encoders can trust it.
	appendCanonical(dst []byte) []byte
	// appendAdvanced appends the advanced encoding to dst.
	appendAdvanced(dst []byte) []byte
}

// AtomVal is an octet-string atom, optionally display-hinted. Octets
// may borrow from a FrameReader (see the package comment); parsed and
// constructor-built atoms own their storage.
type AtomVal struct {
	octets []byte
	hint   string
}

// ListVal is a parenthesized list of children.
type ListVal struct {
	elems []Sexp
}

// RawVal wraps a pre-encoded canonical byte span: encoding is a
// memcpy, and hashing reads the span directly. Structural accessors
// (Len, Nth, Tag, ...) parse the span on demand, so RawVal is for
// encode-heavy paths (serving stored certificates, framing), not for
// introspection loops.
type RawVal struct {
	canon []byte
}

// Atom returns a new atom node holding a copy of the given octets.
func Atom(b []byte) Sexp {
	return &AtomVal{octets: append([]byte(nil), b...)}
}

// String returns a new atom node holding the octets of s.
func String(s string) Sexp {
	return &AtomVal{octets: []byte(s)}
}

// HintedAtom returns an atom with a display hint attached.
func HintedAtom(hint string, b []byte) Sexp {
	return &AtomVal{octets: append([]byte(nil), b...), hint: hint}
}

// List returns a new list node with the given children. The children
// are not copied; callers must not mutate them afterwards.
func List(children ...Sexp) Sexp {
	if children == nil {
		children = []Sexp{}
	}
	return &ListVal{elems: children}
}

// Raw wraps canonical bytes produced by this package's encoders as an
// expression that re-encodes by memcpy. The bytes are not copied and
// must not change afterwards; they must be exactly one canonical
// encoding (Raw does not validate — structural accessors surface
// garbage as an empty atom).
func Raw(canonical []byte) Sexp {
	return &RawVal{canon: canonical}
}

// --- AtomVal ------------------------------------------------------------

func (a *AtomVal) IsAtom() bool  { return true }
func (a *AtomVal) IsList() bool  { return false }
func (a *AtomVal) Len() int      { return 0 }
func (a *AtomVal) Nth(int) Sexp  { return nil }
func (a *AtomVal) Bytes() []byte { return a.octets }
func (a *AtomVal) Hint() string  { return a.hint }
func (a *AtomVal) Tag() string   { return "" }
func (a *AtomVal) Text() string  { return string(a.octets) }

func (a *AtomVal) Copy() Sexp {
	return &AtomVal{octets: append([]byte(nil), a.octets...), hint: a.hint}
}

func (a *AtomVal) FormatLen() int {
	n := verbatimLen(len(a.octets))
	if a.hint != "" {
		n += 2 + verbatimLen(len(a.hint))
	}
	return n
}

func (a *AtomVal) appendCanonical(dst []byte) []byte {
	if a.hint != "" {
		dst = append(dst, '[')
		dst = appendVerbatim(dst, []byte(a.hint))
		dst = append(dst, ']')
	}
	return appendVerbatim(dst, a.octets)
}

func (a *AtomVal) appendAdvanced(dst []byte) []byte {
	if a.hint != "" {
		dst = append(dst, '[')
		dst = appendAdvancedAtom(dst, []byte(a.hint))
		dst = append(dst, ']')
	}
	return appendAdvancedAtom(dst, a.octets)
}

func (a *AtomVal) SortChildren() {}

func (a *AtomVal) Path(tags ...string) Sexp { return pathOf(a, tags) }
func (a *AtomVal) Child(tag string) Sexp    { return pathOf(a, []string{tag}) }

func (a *AtomVal) MustText(i int, what string) (string, error) { return mustText(a, i, what) }

func (a *AtomVal) Canonical() []byte { return canonicalOf(a) }
func (a *AtomVal) Transport() []byte { return transportOf(a) }
func (a *AtomVal) Advanced() []byte  { return a.appendAdvanced(nil) }
func (a *AtomVal) Hash() [32]byte    { return hashOf(a) }
func (a *AtomVal) Key() string       { return string(canonicalOf(a)) }
func (a *AtomVal) String() string    { return string(a.Advanced()) }

// --- ListVal ------------------------------------------------------------

func (l *ListVal) IsAtom() bool  { return false }
func (l *ListVal) IsList() bool  { return true }
func (l *ListVal) Len() int      { return len(l.elems) }
func (l *ListVal) Bytes() []byte { return nil }
func (l *ListVal) Hint() string  { return "" }
func (l *ListVal) Text() string  { return "" }

func (l *ListVal) Nth(i int) Sexp {
	if i < 0 || i >= len(l.elems) {
		return nil
	}
	return l.elems[i]
}

func (l *ListVal) Tag() string {
	if len(l.elems) == 0 {
		return ""
	}
	if first, ok := l.elems[0].(*AtomVal); ok {
		return viewString(first.octets)
	}
	return ""
}

func (l *ListVal) Copy() Sexp {
	var n nodeCounts
	n.add(l)
	return newCompactCopier(n).copy(l)
}

func (l *ListVal) FormatLen() int {
	n := 2
	for _, c := range l.elems {
		n += c.FormatLen()
	}
	return n
}

func (l *ListVal) appendCanonical(dst []byte) []byte {
	dst = append(dst, '(')
	for _, c := range l.elems {
		dst = c.appendCanonical(dst)
	}
	return append(dst, ')')
}

func (l *ListVal) appendAdvanced(dst []byte) []byte {
	dst = append(dst, '(')
	for i, c := range l.elems {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = c.appendAdvanced(dst)
	}
	return append(dst, ')')
}

func (l *ListVal) SortChildren() {
	if len(l.elems) < 2 {
		return
	}
	start := 0
	if l.elems[0].IsAtom() {
		start = 1
	}
	rest := l.elems[start:]
	sort.Slice(rest, func(i, j int) bool {
		return bytes.Compare(rest[i].Canonical(), rest[j].Canonical()) < 0
	})
}

func (l *ListVal) Path(tags ...string) Sexp { return pathOf(l, tags) }
func (l *ListVal) Child(tag string) Sexp    { return pathOf(l, []string{tag}) }

func (l *ListVal) MustText(i int, what string) (string, error) { return mustText(l, i, what) }

func (l *ListVal) Canonical() []byte { return canonicalOf(l) }
func (l *ListVal) Transport() []byte { return transportOf(l) }
func (l *ListVal) Advanced() []byte  { return l.appendAdvanced(nil) }
func (l *ListVal) Hash() [32]byte    { return hashOf(l) }
func (l *ListVal) Key() string       { return string(canonicalOf(l)) }
func (l *ListVal) String() string    { return string(l.Advanced()) }

// --- RawVal -------------------------------------------------------------

// load parses the span for structural access. Raw spans come from our
// own encoders, so a parse failure means a caller broke the Raw
// contract; the empty atom keeps accessors total rather than panicking.
func (r *RawVal) load() Sexp {
	s, err := ParseOne(r.canon)
	if err != nil {
		return &AtomVal{}
	}
	return s
}

func (r *RawVal) IsAtom() bool { return len(r.canon) == 0 || r.canon[0] != '(' }
func (r *RawVal) IsList() bool { return !r.IsAtom() }

func (r *RawVal) Len() int       { return r.load().Len() }
func (r *RawVal) Nth(i int) Sexp { return r.load().Nth(i) }
func (r *RawVal) Bytes() []byte  { return r.load().Bytes() }
func (r *RawVal) Hint() string   { return r.load().Hint() }
func (r *RawVal) Tag() string    { return r.load().Tag() }
func (r *RawVal) Text() string   { return r.load().Text() }

func (r *RawVal) Copy() Sexp {
	return &RawVal{canon: append([]byte(nil), r.canon...)}
}

func (r *RawVal) FormatLen() int { return len(r.canon) }

func (r *RawVal) appendCanonical(dst []byte) []byte { return append(dst, r.canon...) }
func (r *RawVal) appendAdvanced(dst []byte) []byte  { return r.load().appendAdvanced(dst) }

func (r *RawVal) SortChildren() {}

func (r *RawVal) Path(tags ...string) Sexp { return r.load().Path(tags...) }
func (r *RawVal) Child(tag string) Sexp    { return r.load().Child(tag) }

func (r *RawVal) MustText(i int, what string) (string, error) { return r.load().MustText(i, what) }

func (r *RawVal) Canonical() []byte { return append([]byte(nil), r.canon...) }
func (r *RawVal) Transport() []byte { return transportOf(r) }
func (r *RawVal) Advanced() []byte  { return r.appendAdvanced(nil) }
func (r *RawVal) Hash() [32]byte    { return sha256.Sum256(r.canon) }
func (r *RawVal) Key() string       { return string(r.canon) }
func (r *RawVal) String() string    { return string(r.Advanced()) }

// --- shared helpers -----------------------------------------------------

// viewString returns a string view over b without copying. Tag() uses
// it: tag strings are compared and discarded, never retained, so the
// view shares the atom's backing buffer. Retaining one past the
// expression's lifetime would dangle — which is why Text(), the
// retention-safe accessor, still copies.
func viewString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

func appendVerbatim(dst, b []byte) []byte {
	dst = strconv.AppendInt(dst, int64(len(b)), 10)
	dst = append(dst, ':')
	return append(dst, b...)
}

func verbatimLen(n int) int {
	return len(strconv.Itoa(n)) + 1 + n
}

func canonicalOf(s Sexp) []byte {
	return s.appendCanonical(make([]byte, 0, s.FormatLen()))
}

func hashOf(s Sexp) [32]byte {
	buf := getBuf()
	b := s.appendCanonical(buf)
	h := sha256.Sum256(b)
	putBuf(b)
	return h
}

func pathOf(s Sexp, tags []string) Sexp {
	cur := s
	for _, t := range tags {
		if cur == nil || !cur.IsList() {
			return nil
		}
		var next Sexp
		for i, n := 0, cur.Len(); i < n; i++ {
			if c := cur.Nth(i); c.IsList() && c.Tag() == t {
				next = c
				break
			}
		}
		if next == nil {
			return nil
		}
		cur = next
	}
	return cur
}

func mustText(s Sexp, i int, what string) (string, error) {
	c := s.Nth(i)
	if c == nil || c.IsList() {
		return "", fmt.Errorf("sexp: expected %s atom at position %d of %s", what, i, s.Tag())
	}
	return c.Text(), nil
}

// Equal reports whether two expressions are structurally identical,
// including display hints. Either argument may be nil; two nils are
// equal.
func Equal(a, b Sexp) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	ar, aRaw := a.(*RawVal)
	br, bRaw := b.(*RawVal)
	switch {
	case aRaw && bRaw:
		return bytes.Equal(ar.canon, br.canon)
	case aRaw:
		return equalRaw(ar, b)
	case bRaw:
		return equalRaw(br, a)
	}
	if a.IsAtom() != b.IsAtom() {
		return false
	}
	if a.IsAtom() {
		return a.Hint() == b.Hint() && bytes.Equal(a.Bytes(), b.Bytes())
	}
	n := a.Len()
	if n != b.Len() {
		return false
	}
	for i := 0; i < n; i++ {
		if !Equal(a.Nth(i), b.Nth(i)) {
			return false
		}
	}
	return true
}

// equalRaw compares a raw span against any node via canonical bytes
// (the canonical form is injective, so byte equality is structural
// equality).
func equalRaw(r *RawVal, other Sexp) bool {
	if other.FormatLen() != len(r.canon) {
		return false
	}
	buf := getBuf()
	b := other.appendCanonical(buf)
	eq := bytes.Equal(r.canon, b)
	putBuf(b)
	return eq
}

// nodeCounts tallies what a subtree puts in each of Copy's slabs:
// atoms, lists, child slots and octet bytes (atoms' and raw spans').
type nodeCounts struct {
	atoms, lists, elems, octets int
}

func (n *nodeCounts) add(s Sexp) {
	switch v := s.(type) {
	case *AtomVal:
		n.atoms++
		n.octets += len(v.octets)
	case *ListVal:
		n.lists++
		n.elems += len(v.elems)
		for _, c := range v.elems {
			n.add(c)
		}
	case *RawVal:
		n.octets += len(v.canon)
	}
}

// compactCopier deep-copies a tree into a handful of exact-size slabs
// so Copy costs O(4) allocations instead of O(nodes). Slabs are
// pre-sized by nodeCounts, so appends never relocate and node
// pointers stay valid.
type compactCopier struct {
	atoms  []AtomVal
	lists  []ListVal
	elems  []Sexp
	octets []byte
	stack  []Sexp
}

func newCompactCopier(n nodeCounts) *compactCopier {
	return &compactCopier{
		atoms:  make([]AtomVal, 0, n.atoms),
		lists:  make([]ListVal, 0, n.lists),
		elems:  make([]Sexp, 0, n.elems),
		octets: make([]byte, 0, n.octets),
	}
}

func (c *compactCopier) copy(s Sexp) Sexp {
	switch v := s.(type) {
	case *AtomVal:
		start := len(c.octets)
		c.octets = append(c.octets, v.octets...)
		c.atoms = append(c.atoms, AtomVal{octets: c.octets[start:len(c.octets):len(c.octets)], hint: v.hint})
		return &c.atoms[len(c.atoms)-1]
	case *ListVal:
		mark := len(c.stack)
		for _, e := range v.elems {
			c.stack = append(c.stack, c.copy(e))
		}
		start := len(c.elems)
		c.elems = append(c.elems, c.stack[mark:]...)
		c.stack = c.stack[:mark]
		c.lists = append(c.lists, ListVal{elems: c.elems[start:len(c.elems):len(c.elems)]})
		return &c.lists[len(c.lists)-1]
	case *RawVal:
		start := len(c.octets)
		c.octets = append(c.octets, v.canon...)
		return &RawVal{canon: c.octets[start:len(c.octets):len(c.octets)]}
	}
	return nil
}
