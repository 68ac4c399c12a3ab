package tag

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sexp"
)

// pathToken renders one path token: "(" for an open token, and
// "<len>:<bytes>" for an atom, so keys are unambiguous strings.
func pathToken(open bool, atom []byte) string {
	if open {
		return "("
	}
	return strconv.Itoa(len(atom)) + ":" + string(atom)
}

// filingKey is the key Index.Add files t under.
func filingKey(t Tag) string {
	var b strings.Builder
	walkPath(t.expr, func(open bool, atom []byte) { b.WriteString(pathToken(open, atom)) })
	return b.String()
}

// probeKeys are the keys Index.Candidates probes for w, or ok=false
// when w is not indexable.
func probeKeys(w Tag) (keys []string, ok bool) {
	key := ""
	keys = []string{key}
	if walkPath(w.expr, func(open bool, atom []byte) {
		key += pathToken(open, atom)
		keys = append(keys, key)
	}) {
		return nil, false
	}
	return keys, true
}

// pathKeyTags is the shared table for the key tests: the shapes the
// prover and the directory index, plus the cases at the edges of the
// contract (shorter lists, star forms and sets at every depth, display
// hints).
var pathKeyTags = []Tag{
	All(),
	Literal("read"), Literal("write"), Literal(""),
	Prefix(""), Prefix("re"), Prefix("read"),
	Range(OrdAlpha, BoundGE, "a", BoundLE, "z"),
	Range(OrdNumeric, BoundGE, "1", BoundLE, "100"),
	SetOf(), SetOf(Literal("read")), SetOf(Literal("read"), Literal("write")),
	SetOf(Prefix("re"), ListOf(Literal("files"))),
	ListOf(),
	ListOf(Literal("files")),
	ListOf(Literal("files"), Literal("read")),
	ListOf(Literal("files"), All()),
	ListOf(Literal("files"), Prefix("/tmp/")),
	ListOf(Literal("mail"), Literal("read")),
	ListOf(All(), Literal("read")),
	ListOf(Prefix("fi"), Literal("read")),
	ListOf(SetOf(Literal("files"), Literal("mail")), Literal("read")),
	ListOf(ListOf(Literal("x"))),
	MustParse("(db (owner x))"),
	MustParse("(db (owner y))"),
	MustParse("(db (owner))"),
	MustParse("(db (*))"),
	MustParse("(db)"),
	MustParse("(db (owner x) y)"),
	MustParse("((a) c)"),
	MustParse("((a))"),
	MustParse("(files (* set read write))"),
	MustParse("(files [text/plain]read)"),
	MustParse("[text/plain]read"),
}

// TestPathKeyValues pins the filing and probe keys the tag-path index
// relies on.
func TestPathKeyValues(t *testing.T) {
	owner := []string{"", "(", "(2:db", "(2:db(", "(2:db(5:owner", "(2:db(5:owner1:x"}
	cases := []struct {
		tg     Tag
		filing string
		probes []string // nil: not indexable
	}{
		{Literal("read"), "4:read", []string{"", "4:read"}},
		{Literal(""), "0:", []string{"", "0:"}}, // the empty atom is a real path
		{MustParse("[text/plain]read"), "4:read", []string{"", "4:read"}},
		{ListOf(Literal("files"), Literal("read")), "(5:files4:read", []string{"", "(", "(5:files", "(5:files4:read"}},
		{ListOf(Literal("files")), "(5:files", []string{"", "(", "(5:files"}},
		{ListOf(Literal("files"), Prefix("/tmp/")), "(5:files", nil},
		{MustParse("(files (* set read write))"), "(5:files", nil}, // a set inside a list
		{All(), "", nil},
		{Prefix("re"), "", nil},
		{Range(OrdAlpha, BoundGE, "a", BoundLE, "z"), "", nil},
		{SetOf(Literal("read"), Literal("write")), "", nil},
		{SetOf(), "", nil},
		{ListOf(), "(", []string{"", "("}}, // () covers every list
		{ListOf(All()), "(", nil},
		{ListOf(Prefix("f")), "(", nil},
		{ListOf(ListOf()), "((", []string{"", "(", "(("}},
		{MustParse("(db (owner x))"), "(2:db(5:owner1:x", owner},
		{MustParse("(db (owner))"), "(2:db(5:owner", owner[:5]},
		{MustParse("(db (*))"), "(2:db", nil},
		{MustParse("(db (owner x) y)"), "(2:db(5:owner1:x", owner}, // the walk ends at the first close
		{MustParse("((a) c)"), "((1:a", []string{"", "(", "((", "((1:a"}},
		{Tag{}, "", []string{""}}, // invalid zero tag: covers and is covered by nothing
	}
	if MustParse("[text/plain]read").expr.Hint() == "" {
		t.Fatal("the display-hint fixture parsed without its hint")
	}
	for _, c := range cases {
		if got := filingKey(c.tg); got != c.filing {
			t.Errorf("filing key of %s = %q, want %q", c.tg, got, c.filing)
		}
		got, ok := probeKeys(c.tg)
		if ok != (c.probes != nil) || !slices.Equal(got, c.probes) {
			t.Errorf("probe keys of %s = %q (ok=%v), want %q", c.tg, got, ok, c.probes)
		}
	}
}

// TestPathKeySoundVsCovers exhaustively checks the contract the index
// depends on, over every pair of pathKeyTags: whenever Covers(a, b)
// holds for an indexable b, a's filing key is one of b's probe keys,
// and an Index holding every tag returns a among b's candidates, in
// insertion order. Unindexable queries scan the full fan-in, so they
// need no guarantee. A violation here means an indexed lookup could
// silently miss a covering grant.
func TestPathKeySoundVsCovers(t *testing.T) {
	var ix Index[int]
	for i, tg := range pathKeyTags {
		ix.Add(tg, i)
	}
	for _, b := range pathKeyTags {
		probes, ok := probeKeys(b)
		cands, cok := ix.Candidates(b)
		if cok != ok {
			t.Fatalf("Candidates(%s) ok=%v, probe keys ok=%v", b, cok, ok)
		}
		if !ok {
			continue
		}
		if !slices.IsSorted(cands) {
			t.Errorf("Candidates(%s) = %v, not in insertion order", b, cands)
		}
		for i, a := range pathKeyTags {
			if !Covers(a, b) {
				continue
			}
			if !slices.Contains(probes, filingKey(a)) {
				t.Errorf("Covers(%s, %s) but filing key %q is not among probes %q", a, b, filingKey(a), probes)
			}
			if !slices.Contains(cands, i) {
				t.Errorf("Covers(%s, %s) but Candidates(%s) misses it", a, b, b)
			}
		}
	}
}

// TestIndexRemovePrunes checks removal: a removed item is no longer a
// candidate, removing an absent item reports false, and an index
// emptied item by item holds no paths.
func TestIndexRemovePrunes(t *testing.T) {
	var ix Index[int]
	for i, tg := range pathKeyTags {
		ix.Add(tg, i)
	}
	w := MustParse("(db (owner x))")
	for i, tg := range pathKeyTags {
		if !ix.Remove(tg, i) {
			t.Fatalf("Remove(%s, %d) missed a filed item", tg, i)
		}
		if ix.Remove(tg, i) {
			t.Fatalf("Remove(%s, %d) found an already-removed item", tg, i)
		}
		if cands, _ := ix.Candidates(w); slices.Contains(cands, i) {
			t.Fatalf("removed item %d (%s) is still a candidate", i, tg)
		}
	}
	if r := ix.root; len(r.items) != 0 || r.list != nil || len(r.atoms) != 0 {
		t.Fatalf("emptied index still holds paths: %+v", r)
	}
}

// TestIndexHostileQueryIsLinear runs a lookup for a flat list tag of
// about 1 MiB against an index whose paths share its prefix: the probe
// keys are never built, so the lookup is one pass over the query.
func TestIndexHostileQueryIsLinear(t *testing.T) {
	elems := make([]sexp.Sexp, 350_000)
	for i := range elems {
		elems[i] = sexp.String("a")
	}
	w := Tag{expr: sexp.List(elems...)}
	var ix Index[int]
	ix.Add(MustParse("(a a)"), 1)
	ix.Add(MustParse("(a b)"), 2)
	ix.Add(All(), 3)
	allocs := testing.AllocsPerRun(3, func() {
		cands, ok := ix.Candidates(w)
		if !ok || !slices.Equal(cands, []int{1, 3}) {
			t.Fatalf("Candidates = %v, %v", cands, ok)
		}
	})
	if allocs > 8 {
		t.Fatalf("Candidates allocated %v times for one query; the probe keys must not be materialized", allocs)
	}
}

// fuzzAtoms keeps generated tags on a small alphabet, so covering
// pairs are common.
var fuzzAtoms = []string{"db", "owner", "x", "y", "", "a"}

// tagGen builds a tag from fuzz bytes by a small grammar; exhausted
// input reads as zeros, which end the tag with an atom.
type tagGen struct {
	data []byte
	i    int
}

func (g *tagGen) next() int {
	if g.i >= len(g.data) {
		return 0
	}
	g.i++
	return int(g.data[g.i-1])
}

func (g *tagGen) atom() string { return fuzzAtoms[g.next()%len(fuzzAtoms)] }

func (g *tagGen) expr(depth int) sexp.Sexp {
	op := g.next() % 8
	if depth >= 4 {
		op = 0
	}
	switch op {
	case 2:
		return sexp.HintedAtom("text/plain", []byte(g.atom()))
	case 3:
		return starExpr()
	case 4, 5:
		kids := make([]sexp.Sexp, g.next()%4)
		for i := range kids {
			kids[i] = g.expr(depth + 1)
		}
		return sexp.List(kids...)
	case 6:
		kids := []sexp.Sexp{sexp.String("*"), sexp.String("set")}
		for n := g.next() % 3; n > 0; n-- {
			kids = append(kids, g.expr(depth+1))
		}
		return sexp.List(kids...)
	case 7:
		if g.next()%2 == 0 {
			a := g.atom()
			return Prefix(a[:len(a)/2]).expr
		}
		return Range(OrdAlpha, BoundGE, "a", BoundLE, "x").expr
	}
	return sexp.String(g.atom())
}

// FuzzTagPathIndex checks the index contract on generated tag pairs:
// Covers(t, w) with w indexable implies t's filing key is a probe key
// of w and t is among w's candidates, beside unrelated items; removing
// t takes it out again.
func FuzzTagPathIndex(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b []byte) {
		tg := Tag{expr: (&tagGen{data: a}).expr(0)}
		w := Tag{expr: (&tagGen{data: b}).expr(0)}
		if !Covers(tg, w) {
			return
		}
		probes, ok := probeKeys(w)
		if !ok {
			return
		}
		if !slices.Contains(probes, filingKey(tg)) {
			t.Fatalf("Covers(%s, %s) but filing key %q is not among probes %q", tg, w, filingKey(tg), probes)
		}
		var ix Index[int]
		ix.Add(MustParse("(db (owner zz))"), 0)
		ix.Add(tg, 1)
		ix.Add(w, 2)
		cands, _ := ix.Candidates(w)
		if !slices.Contains(cands, 1) || !slices.Contains(cands, 2) || !slices.IsSorted(cands) {
			t.Fatalf("Covers(%s, %s) but Candidates = %v", tg, w, cands)
		}
		if !ix.Remove(tg, 1) {
			t.Fatalf("Remove(%s) missed", tg)
		}
		if cands, _ := ix.Candidates(w); slices.Contains(cands, 1) {
			t.Fatalf("removed %s is still a candidate of %s", tg, w)
		}
	})
}
