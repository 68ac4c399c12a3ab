package principal

import (
	"testing"

	"repro/internal/sexp"
	"repro/internal/sfkey"
)

func testKey(seed string) Key {
	return KeyOf(sfkey.FromSeed([]byte(seed)).Public())
}

func TestKeyPrincipal(t *testing.T) {
	a, b := testKey("a"), testKey("b")
	if Equal(a, b) {
		t.Fatal("distinct keys Equal")
	}
	if !Equal(a, testKey("a")) {
		t.Fatal("same key not Equal")
	}
	back, err := FromSexp(a.Sexp())
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(a, back) {
		t.Fatal("key round trip")
	}
}

func TestHashPrincipal(t *testing.T) {
	k := sfkey.FromSeed([]byte("h")).Public()
	h := HashOfKey(k)
	if !HashMatchesKey(h, k) {
		t.Fatal("hash should match its key")
	}
	other := sfkey.FromSeed([]byte("o")).Public()
	if HashMatchesKey(h, other) {
		t.Fatal("hash matched wrong key")
	}
	back, err := FromSexp(h.Sexp())
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(h, back) {
		t.Fatal("hash round trip")
	}
	doc := HashOfBytes([]byte("document body"))
	if Equal(doc, h) {
		t.Fatal("different digests Equal")
	}
}

func TestNamePrincipal(t *testing.T) {
	k := testKey("alice")
	n := NameOf(k, "mail", "inbox")
	back, err := FromSexp(n.Sexp())
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(n, back) {
		t.Fatal("name round trip")
	}
	if Equal(n, NameOf(k, "mail")) {
		t.Fatal("different paths Equal")
	}
	if Equal(n, NameOf(testKey("bob"), "mail", "inbox")) {
		t.Fatal("different bases Equal")
	}
}

func TestConjCanonicalOrder(t *testing.T) {
	a, b := testKey("a"), testKey("b")
	c1 := ConjOf(a, b)
	c2 := ConjOf(b, a)
	if !Equal(c1, c2) {
		t.Fatal("conjunction should canonicalize part order")
	}
	if !c1.IsFullConjunction() {
		t.Fatal("ConjOf should be a full conjunction")
	}
	th := ThresholdOf(1, a, b)
	if th.IsFullConjunction() {
		t.Fatal("1-of-2 is not full")
	}
	if Equal(c1, th) {
		t.Fatal("different k Equal")
	}
	back, err := FromSexp(c1.Sexp())
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(c1, back) {
		t.Fatal("conj round trip")
	}
}

func TestQuotePrincipal(t *testing.T) {
	g, c := testKey("gateway"), testKey("client")
	q := QuoteOf(g, c)
	if Equal(q, QuoteOf(c, g)) {
		t.Fatal("quoting is not symmetric")
	}
	back, err := FromSexp(q.Sexp())
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(q, back) {
		t.Fatal("quote round trip")
	}
	// Nested: gateway quoting (gateway quoting client).
	nested := QuoteOf(g, q)
	back, err = FromSexp(nested.Sexp())
	if err != nil || !Equal(nested, back) {
		t.Fatal("nested quote round trip")
	}
}

func TestChannelAndMAC(t *testing.T) {
	ch := ChannelOf(ChannelSecure, []byte{1, 2, 3, 4})
	back, err := FromSexp(ch.Sexp())
	if err != nil || !Equal(ch, back) {
		t.Fatal("channel round trip")
	}
	if Equal(ch, ChannelOf(ChannelLocal, []byte{1, 2, 3, 4})) {
		t.Fatal("kinds distinguish channels")
	}
	m := MACOf([]byte("secret"))
	back, err = FromSexp(m.Sexp())
	if err != nil || !Equal(m, back) {
		t.Fatal("mac round trip")
	}
	if Equal(m, MACOf([]byte("other"))) {
		t.Fatal("different secrets Equal")
	}
}

func TestFromSexpRejectsMalformed(t *testing.T) {
	bad := []string{
		`(unknown x)`,
		`(hash sha256)`,
		`(hash (l) x)`,
		`(name (hash sha256 |AA==|))`,
		`(k-of-n 2 1 (hash sha256 |AA==|))`,
		`(k-of-n 0 1 (hash sha256 |AA==|))`,
		`(k-of-n x 1 (hash sha256 |AA==|))`,
		`(quoting (hash sha256 |AA==|))`,
		`(channel secure)`,
		`(mac sha256)`,
		`atom`,
	}
	for _, s := range bad {
		e, err := sexp.ParseOne([]byte(s))
		if err != nil {
			t.Fatalf("test input %q does not parse: %v", s, err)
		}
		if _, err := FromSexp(e); err == nil {
			t.Errorf("FromSexp(%s) succeeded, want error", s)
		}
	}
	if _, err := FromSexp(nil); err == nil {
		t.Error("FromSexp(nil) succeeded")
	}
}

func TestParseText(t *testing.T) {
	ch := ChannelOf(ChannelLocal, []byte("pipe-7"))
	p, err := Parse(string(ch.Sexp().Advanced()))
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(p, ch) {
		t.Fatal("text parse round trip")
	}
}

func TestStringRenderings(t *testing.T) {
	// Smoke test: String must not panic and must be non-empty and
	// distinct across kinds.
	k := testKey("k")
	ps := []Principal{
		k,
		HashOfBytes([]byte("d")),
		NameOf(k, "n"),
		ConjOf(k, testKey("j")),
		ThresholdOf(1, k, testKey("j")),
		QuoteOf(k, testKey("q")),
		ChannelOf(ChannelSecure, []byte{9}),
		MACOf([]byte("s")),
	}
	seen := map[string]bool{}
	for _, p := range ps {
		s := p.String()
		if s == "" {
			t.Errorf("%T renders empty", p)
		}
		if seen[s] {
			t.Errorf("duplicate rendering %q", s)
		}
		seen[s] = true
	}
}

func TestKeyStability(t *testing.T) {
	// Key() must be stable across construction routes.
	k := testKey("stable")
	p1, _ := FromSexp(k.Sexp())
	if p1.Key() != k.Key() {
		t.Fatal("Key differs across parse round trip")
	}
}

// TestEqualAgreesWithKey pins Equal's direct comparisons to the
// definition of sameness, Key equality, across kinds and nesting.
func TestEqualAgreesWithKey(t *testing.T) {
	a, b := testKey("eq-a"), testKey("eq-b")
	ps := []Principal{
		a, b, HashOfKey(a.Pub), HashOfKey(b.Pub),
		NameOf(a, "staff"), NameOf(a, "staff", "alice"), NameOf(b, "staff"), NameOf(a),
		Name{Base: a, Path: []string{}},
		NameOf(NameOf(a, "staff"), "alice"),
		QuoteOf(a, b), QuoteOf(b, a), QuoteOf(a, QuoteOf(a, b)), QuoteOf(a, NameOf(b, "x")),
		QuoteOf(HashOfKey(a.Pub), b),
		ConjOf(a, b), Pseudo{},
	}
	for _, x := range ps {
		for _, y := range ps {
			if got, want := Equal(x, y), x.Key() == y.Key(); got != want {
				t.Errorf("Equal(%s, %s) = %v, Key equality says %v", x, y, got, want)
			}
		}
	}
}

// TestEqualAcrossKindsAllocatesNothing pins the mismatched-kind fast
// path: a prover comparing a key node with a quoted subject must not
// rebuild either side's canonical encoding to learn they differ.
func TestEqualAcrossKindsAllocatesNothing(t *testing.T) {
	a, b := testKey("kinds-a"), testKey("kinds-b")
	ps := []Principal{a, HashOfKey(a.Pub), QuoteOf(b, a), NameOf(a, "staff")}
	for i, x := range ps {
		for j, y := range ps {
			if i == j {
				continue
			}
			if n := testing.AllocsPerRun(100, func() {
				if Equal(x, y) {
					t.Fatalf("Equal(%s, %s)", x, y)
				}
			}); n != 0 {
				t.Errorf("Equal(%s, %s) allocates %.0f times, want 0", x, y, n)
			}
		}
	}
}
