package sexp

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestAtomBasics(t *testing.T) {
	a := Atom([]byte("hello"))
	if a.IsList() {
		t.Fatal("atom reported as list")
	}
	if a.Text() != "hello" {
		t.Fatalf("Text = %q", a.Text())
	}
	if a.Len() != 0 {
		t.Fatalf("atom Len = %d", a.Len())
	}
	if a.Nth(0) != nil {
		t.Fatal("atom Nth should be nil")
	}
}

func TestListBasics(t *testing.T) {
	l := List(String("cert"), String("x"), List(String("inner")))
	if !l.IsList() {
		t.Fatal("list reported as atom")
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
	if l.Tag() != "cert" {
		t.Fatalf("Tag = %q", l.Tag())
	}
	if l.Nth(2).Tag() != "inner" {
		t.Fatalf("Nth(2).Tag = %q", l.Nth(2).Tag())
	}
	if l.Nth(3) != nil || l.Nth(-1) != nil {
		t.Fatal("out-of-range Nth should be nil")
	}
}

func TestTagOfAtomAndEmpty(t *testing.T) {
	if Atom([]byte("x")).Tag() != "" {
		t.Fatal("atom Tag should be empty")
	}
	if List().Tag() != "" {
		t.Fatal("empty list Tag should be empty")
	}
	if List(List(String("a"))).Tag() != "" {
		t.Fatal("list-headed list Tag should be empty")
	}
}

func TestCanonicalEncoding(t *testing.T) {
	cases := []struct {
		in   Sexp
		want string
	}{
		{Atom(nil), "0:"},
		{String("abc"), "3:abc"},
		{List(), "()"},
		{List(String("a"), String("bc")), "(1:a2:bc)"},
		{List(String("cert"), List(String("issuer"), String("k"))), "(4:cert(6:issuer1:k))"},
		{HintedAtom("text/plain", []byte("hi")), "[10:text/plain]2:hi"},
	}
	for _, c := range cases {
		got := string(c.in.Canonical())
		if got != c.want {
			t.Errorf("Canonical(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseCanonicalRoundTrip(t *testing.T) {
	exprs := []Sexp{
		Atom(nil),
		String("token"),
		Atom([]byte{0, 1, 2, 255}),
		HintedAtom("mime", []byte("data")),
		List(),
		List(String("tag"), List(String("web"), List(String("method"), String("GET")))),
		List(List(), List(List(String("deep")))),
	}
	for _, e := range exprs {
		enc := e.Canonical()
		got, err := ParseOne(enc)
		if err != nil {
			t.Fatalf("parse %q: %v", enc, err)
		}
		if !Equal(e, got) {
			t.Errorf("round trip %q: got %v", enc, got)
		}
	}
}

func TestParseAdvancedForms(t *testing.T) {
	cases := []struct {
		in   string
		want Sexp
	}{
		{`abc`, String("abc")},
		{`(a b c)`, List(String("a"), String("b"), String("c"))},
		{`"quoted string"`, String("quoted string")},
		{`"esc\"q\n"`, String("esc\"q\n")},
		{`|aGVsbG8=|`, String("hello")},
		{`#68656c6c6f#`, String("hello")},
		{`( a ( b "c d" ) )`, List(String("a"), List(String("b"), String("c d")))},
		{"(tag (*))", List(String("tag"), List(String("*")))},
	}
	for _, c := range cases {
		got, err := ParseOne([]byte(c.in))
		if err != nil {
			t.Fatalf("parse %q: %v", c.in, err)
		}
		if !Equal(c.want, got) {
			t.Errorf("parse %q = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestAdvancedRoundTrip(t *testing.T) {
	exprs := []Sexp{
		String("token"),
		String("with space"),
		Atom([]byte{0x00, 0xff}),
		List(String("cert"), String("9numeric-start"), Atom([]byte("bin\x01"))),
		HintedAtom("text/plain", []byte("hinted")),
	}
	for _, e := range exprs {
		enc := e.Advanced()
		got, err := ParseOne(enc)
		if err != nil {
			t.Fatalf("parse advanced %q: %v", enc, err)
		}
		if !Equal(e, got) {
			t.Errorf("advanced round trip %q -> %v", enc, got)
		}
	}
}

func TestTransportRoundTrip(t *testing.T) {
	e := List(String("cert"), List(String("issuer"), Atom([]byte{1, 2, 3})))
	enc := e.Transport()
	if enc[0] != '{' || enc[len(enc)-1] != '}' {
		t.Fatalf("transport framing: %q", enc)
	}
	got, err := ParseOne(enc)
	if err != nil {
		t.Fatalf("parse transport: %v", err)
	}
	if !Equal(e, got) {
		t.Errorf("transport round trip mismatch")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "(", "(a", "3:ab", "(]", "\"unterminated", "|aGVsbG8", "#zz#",
		"[hint", "999999999999:x", "4:abc",
	}
	for _, in := range bad {
		if _, err := ParseOne([]byte(in)); err == nil {
			t.Errorf("ParseOne(%q) succeeded, want error", in)
		}
	}
}

func TestParseTrailingGarbage(t *testing.T) {
	if _, err := ParseOne([]byte("(a) junk")); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	if _, err := ParseOne([]byte("(a)  \n ")); err != nil {
		t.Fatalf("trailing whitespace rejected: %v", err)
	}
}

func TestParseDepthLimit(t *testing.T) {
	deep := strings.Repeat("(", MaxDepth+2) + strings.Repeat(")", MaxDepth+2)
	if _, err := ParseOne([]byte(deep)); err == nil {
		t.Fatal("over-deep input accepted")
	}
	ok := strings.Repeat("(", 10) + "a" + strings.Repeat(")", 10)
	if _, err := ParseOne([]byte(ok)); err != nil {
		t.Fatalf("reasonable nesting rejected: %v", err)
	}
}

func TestParseHostileDeepNesting(t *testing.T) {
	// A megabyte of open parens must produce a depth error, not grow
	// the goroutine stack: the parser is iterative, so the only cost is
	// scanning for the limit.
	hostile := bytes.Repeat([]byte{'('}, 1<<20)
	if _, _, err := Parse(hostile); err == nil {
		t.Fatal("hostile deep nesting accepted")
	}
	// Same through the transport decoder.
	inner := append(bytes.Repeat([]byte{'('}, MaxDepth+10), bytes.Repeat([]byte{')'}, MaxDepth+10)...)
	if _, err := ParseOne(List(String("x")).Transport()); err != nil {
		t.Fatalf("transport sanity: %v", err)
	}
	if _, _, err := Parse(transportOf(Raw(inner))); err == nil {
		t.Fatal("hostile nesting inside transport wrapper accepted")
	}
}

func TestEqualAndHash(t *testing.T) {
	a := List(String("x"), Atom([]byte{1}))
	b := List(String("x"), Atom([]byte{1}))
	c := List(String("x"), Atom([]byte{2}))
	if !Equal(a, b) {
		t.Fatal("equal expressions not Equal")
	}
	if Equal(a, c) {
		t.Fatal("different expressions Equal")
	}
	if a.Hash() != b.Hash() {
		t.Fatal("equal expressions hash differently")
	}
	if a.Hash() == c.Hash() {
		t.Fatal("different expressions hash equal")
	}
	if Equal(a, nil) || !Equal(nil, nil) {
		t.Fatal("nil Equal semantics")
	}
	hintA := HintedAtom("h", []byte("x"))
	if Equal(hintA, String("x")) {
		t.Fatal("hint ignored by Equal")
	}
}

func TestRawBehavesLikeParsed(t *testing.T) {
	e := List(String("cert"), List(String("issuer"), String("ki")), Atom([]byte{1, 2}))
	r := Raw(e.Canonical())
	if !Equal(e, r) || !Equal(r, e) {
		t.Fatal("Raw not Equal to its source")
	}
	if r.Hash() != e.Hash() {
		t.Fatal("Raw hashes differently")
	}
	if !bytes.Equal(r.Canonical(), e.Canonical()) {
		t.Fatal("Raw canonical differs")
	}
	if r.Tag() != "cert" || r.Len() != 3 || r.Path("issuer") == nil {
		t.Fatal("Raw structural accessors broken")
	}
	if !Equal(r, r.Copy()) {
		t.Fatal("Raw Copy not Equal")
	}
	got, err := ParseOne(r.Transport())
	if err != nil || !Equal(e, got) {
		t.Fatalf("Raw transport round trip: %v", err)
	}
	if r.FormatLen() != len(e.Canonical()) {
		t.Fatal("Raw FormatLen wrong")
	}
	// Atom-shaped raw span.
	ra := Raw(String("tok").Canonical())
	if !ra.IsAtom() || ra.Text() != "tok" {
		t.Fatal("atom Raw broken")
	}
}

func TestCopyIsDeep(t *testing.T) {
	orig := List(String("a"), List(String("b")))
	cp := orig.Copy()
	cp.Nth(0).Bytes()[0] = 'z'
	cp.Nth(1).Nth(0).Bytes()[0] = 'z'
	if orig.Nth(0).Text() != "a" || orig.Nth(1).Nth(0).Text() != "b" {
		t.Fatal("Copy shares storage with original")
	}
}

// TestCopySlabsExact: Copy sizes each slab by what the tree puts in
// it, so a list reserves no atom and an atom no list, and every slab
// is filled to its capacity.
func TestCopySlabsExact(t *testing.T) {
	tree := List(String("cert"),
		List(String("issuer"), Atom([]byte("key-bytes"))),
		List(String("tag"), List(String("rmi"), List(String("object"), String("echo")))),
		Raw(List(String("valid"), String("forever")).Canonical()))
	var n nodeCounts
	n.add(tree)
	// 7 atoms, 5 lists, 4+2+2+2+2 child slots, and the raw span's 18
	// octets beside the atoms' 4+6+9+3+3+6+4.
	if want := (nodeCounts{atoms: 7, lists: 5, elems: 12, octets: 35 + 18}); n != want {
		t.Fatalf("counts = %+v, want %+v", n, want)
	}
	c := newCompactCopier(n)
	cp := c.copy(tree)
	if cap(c.atoms) != n.atoms || len(c.atoms) != n.atoms {
		t.Fatalf("atom slab len/cap %d/%d, want %d", len(c.atoms), cap(c.atoms), n.atoms)
	}
	if cap(c.lists) != n.lists || len(c.lists) != n.lists {
		t.Fatalf("list slab len/cap %d/%d, want %d", len(c.lists), cap(c.lists), n.lists)
	}
	if cap(c.elems) != n.elems || len(c.elems) != n.elems {
		t.Fatalf("elem slab len/cap %d/%d, want %d", len(c.elems), cap(c.elems), n.elems)
	}
	if cap(c.octets) != n.octets || len(c.octets) != n.octets {
		t.Fatalf("octet slab len/cap %d/%d, want %d", len(c.octets), cap(c.octets), n.octets)
	}
	if !Equal(cp, tree) || !Equal(tree.Copy(), tree) {
		t.Fatal("copy differs from the original")
	}
}

func TestCopyOutlivesArena(t *testing.T) {
	a := new(arena)
	in := []byte("(4:cert(6:issuer2:ki)[4:mime]3:xyz)")
	s, err := a.parseOne(in)
	if err != nil {
		t.Fatal(err)
	}
	cp := s.Copy()
	want := s.Canonical()
	// Refill the arena's slabs with another parse, then scribble over
	// the input buffer the first parse borrowed from.
	a.reset()
	if _, err := a.parseOne([]byte(`(8:somethin"quoted\nelse"(|YWJj|))`)); err != nil {
		t.Fatal(err)
	}
	for i := range in {
		in[i] = 0
	}
	if !bytes.Equal(cp.Canonical(), want) {
		t.Fatal("Copy still referenced the arena or input buffer")
	}
}

func TestPath(t *testing.T) {
	e := List(String("cert"),
		List(String("issuer"), String("ki")),
		List(String("subject"), List(String("keyhash"), String("ks"))),
	)
	if got := e.Path("issuer"); got == nil || got.Nth(1).Text() != "ki" {
		t.Fatalf("Path(issuer) = %v", got)
	}
	if got := e.Path("subject", "keyhash"); got == nil || got.Nth(1).Text() != "ks" {
		t.Fatalf("Path(subject,keyhash) = %v", got)
	}
	if e.Path("nope") != nil {
		t.Fatal("missing path should be nil")
	}
}

func TestSortChildren(t *testing.T) {
	e := List(String("set"), String("c"), String("a"), String("b"))
	e.SortChildren()
	want := List(String("set"), String("a"), String("b"), String("c"))
	if !Equal(e, want) {
		t.Fatalf("SortChildren = %v", e)
	}
	// Leading list head: everything sorted.
	f := List(List(String("z")), List(String("a")))
	f.SortChildren()
	if f.Nth(0).Tag() != "a" {
		t.Fatalf("SortChildren with list head = %v", f)
	}
}

func TestFormatLenMatchesCanonical(t *testing.T) {
	exprs := []Sexp{
		Atom(nil), String("abcdef"),
		HintedAtom("hint", []byte("body")),
		List(String("a"), List(String("b"), Atom(bytes.Repeat([]byte{7}, 300)))),
	}
	for _, e := range exprs {
		if err := validateLen(e); err != nil {
			t.Error(err)
		}
	}
}

// randomSexp builds a random expression for property tests.
func randomSexp(r *rand.Rand, depth int) Sexp {
	if depth <= 0 || r.Intn(3) == 0 {
		n := r.Intn(12)
		b := make([]byte, n)
		r.Read(b)
		if r.Intn(4) == 0 {
			return HintedAtom("h", b)
		}
		return Atom(b)
	}
	n := r.Intn(4)
	kids := make([]Sexp, n)
	for i := range kids {
		kids[i] = randomSexp(r, depth-1)
	}
	return List(kids...)
}

func TestQuickCanonicalRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randomSexp(r, 4)
		got, err := ParseOne(e.Canonical())
		if err != nil {
			return false
		}
		return Equal(e, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickAdvancedRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randomSexp(r, 4)
		got, err := ParseOne(e.Advanced())
		if err != nil {
			return false
		}
		return Equal(e, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickTransportRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randomSexp(r, 3)
		got, err := ParseOne(e.Transport())
		if err != nil {
			return false
		}
		return Equal(e, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickCopyEqual(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randomSexp(r, 4)
		return Equal(e, e.Copy())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickArenaAgreesWithFresh(t *testing.T) {
	// One warm arena parsing many expressions must give the same trees
	// as a fresh parse each time.
	a := new(arena)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randomSexp(r, 4)
		enc := e.Canonical()
		a.reset()
		got, err := a.parseOne(enc)
		if err != nil {
			return false
		}
		return Equal(e, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickFormatLen(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		return validateLen(randomSexp(r, 4)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickHashInjective(t *testing.T) {
	// Different canonical encodings must give different Keys.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomSexp(r, 3)
		b := randomSexp(r, 3)
		if Equal(a, b) {
			return a.Key() == b.Key()
		}
		return a.Key() != b.Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestParserFuzzSeeds(t *testing.T) {
	// Hostile inputs should error, never panic.
	inputs := []string{
		"((((((((", ")", "1:", "(1:a))", "{bad b64}", "{}", "[]x",
		"\x00\x01", "(|  |)", "\"\\q\"", "#6#",
	}
	for _, in := range inputs {
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Errorf("panic on %q: %v", in, rec)
				}
			}()
			Parse([]byte(in))
		}()
	}
}

func TestReflectDeepEqualAgreesWithEqual(t *testing.T) {
	a := List(String("x"))
	b := a.Copy()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("DeepEqual disagrees after Copy")
	}
}
