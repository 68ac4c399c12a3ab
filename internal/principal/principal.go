// Package principal implements Snowflake's principals: the entities
// that make statements (paper section 4.2). Beyond SPKI's public keys
// the system admits hashes, SDSI names, threshold (conjunction)
// principals, Lampson-style quoting principals, communication
// channels, and MAC keys — all first-class, so the same logic covers
// a trusted kernel on one host, a secret-key protocol inside a
// domain, and public keys in the wide area.
package principal

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/sexp"
	"repro/internal/sfkey"
)

// Principal is any entity that can utter a statement. Principals are
// immutable values; Key returns a canonical encoding usable as a map
// key, and two principals are the same entity exactly when their Keys
// are equal.
type Principal interface {
	// Sexp returns the canonical S-expression form.
	Sexp() sexp.Sexp
	// Key returns the canonical encoding as a string.
	Key() string
	// String returns a compact human-readable rendering.
	String() string
}

// Equal reports whether a and b denote the same principal.
func Equal(a, b Principal) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	// Direct comparisons for the principal kinds that make up proof
	// chains (a gateway's handoffs are quotes, SDSI grants names),
	// avoiding the wire-form rebuild Key() implies. Each agrees with
	// Key equality: a kind's encoding is its fields', in order, under
	// a head tag no other kind uses, so two different kinds are never
	// equal.
	switch pa := a.(type) {
	case Key:
		pb, ok := b.(Key)
		return ok && pa.Pub.Equal(pb.Pub)
	case Hash:
		pb, ok := b.(Hash)
		return ok && pa.Alg == pb.Alg && bytes.Equal(pa.Digest, pb.Digest)
	case Quote:
		pb, ok := b.(Quote)
		return ok && Equal(pa.Quoter, pb.Quoter) && Equal(pa.Quotee, pb.Quotee)
	case Name:
		pb, ok := b.(Name)
		return ok && slices.Equal(pa.Path, pb.Path) && Equal(pa.Base, pb.Base)
	}
	return a.Key() == b.Key()
}

// --- key principal ---------------------------------------------------

// Key is a public-key principal: the key speaks through signatures.
type Key struct {
	Pub sfkey.PublicKey
}

// KeyOf wraps a public key as a principal.
func KeyOf(pub sfkey.PublicKey) Key { return Key{Pub: pub} }

func (k Key) Sexp() sexp.Sexp { return k.Pub.Sexp() }
func (k Key) Key() string     { return k.Sexp().Key() }
func (k Key) String() string  { return "K(" + k.Pub.Fingerprint() + ")" }

// --- hash principal --------------------------------------------------

// Hash is the principal named by a digest: the hash of a key (the
// paper's HKC), a document (HD), or a request. A hash principal says
// only the object it hashes.
type Hash struct {
	Alg    string
	Digest []byte
}

// HashOfKey returns the hash principal of a public key.
func HashOfKey(pub sfkey.PublicKey) Hash {
	return Hash{Alg: sfkey.HashAlg, Digest: pub.Hash()}
}

// HashOfBytes returns the hash principal of arbitrary octets
// (documents, serialized requests).
func HashOfBytes(b []byte) Hash {
	return Hash{Alg: sfkey.HashAlg, Digest: sfkey.HashBytes(b)}
}

// HashOfSexp returns the hash principal of an S-expression's
// canonical form.
func HashOfSexp(e sexp.Sexp) Hash {
	return Hash{Alg: sfkey.HashAlg, Digest: sfkey.HashBytes(e.Canonical())}
}

func (h Hash) Sexp() sexp.Sexp {
	return sexp.List(sexp.String("hash"), sexp.String(h.Alg), sexp.Atom(h.Digest))
}
func (h Hash) Key() string { return h.Sexp().Key() }
func (h Hash) String() string {
	d := h.Digest
	if len(d) > 6 {
		d = d[:6]
	}
	return "H(" + hex.EncodeToString(d) + ")"
}

// --- SDSI name principal ----------------------------------------------

// Name is a linked-local-namespace name: Base's binding for the name
// path. "KC · N" in the paper's Figure 1 is Name{Base: KC, Path: [N]}.
type Name struct {
	Base Principal
	Path []string
}

// NameOf builds base·n1·n2·…
func NameOf(base Principal, path ...string) Name {
	return Name{Base: base, Path: path}
}

func (n Name) Sexp() sexp.Sexp {
	kids := []sexp.Sexp{sexp.String("name"), n.Base.Sexp()}
	for _, p := range n.Path {
		kids = append(kids, sexp.String(p))
	}
	return sexp.List(kids...)
}
func (n Name) Key() string { return n.Sexp().Key() }
func (n Name) String() string {
	return n.Base.String() + "·" + strings.Join(n.Path, "·")
}

// --- conjunction / threshold principal --------------------------------

// Conj is the conjunction of principals: it says s only when every
// part says s. SPKI's threshold subjects generalize to K-of-N; the
// common case K = N is the paper's conjunction ("Alice and the file
// system quoting Alice", section 2.3).
type Conj struct {
	K     int // how many parts must agree; 0 means all
	Parts []Principal
}

// ConjOf returns the all-parts conjunction, canonically ordered.
func ConjOf(parts ...Principal) Conj {
	ps := append([]Principal(nil), parts...)
	sort.Slice(ps, func(i, j int) bool { return ps[i].Key() < ps[j].Key() })
	return Conj{K: len(ps), Parts: ps}
}

// ThresholdOf returns a K-of-N threshold principal.
func ThresholdOf(k int, parts ...Principal) Conj {
	ps := append([]Principal(nil), parts...)
	sort.Slice(ps, func(i, j int) bool { return ps[i].Key() < ps[j].Key() })
	return Conj{K: k, Parts: ps}
}

func (c Conj) Sexp() sexp.Sexp {
	k := c.K
	if k == 0 {
		k = len(c.Parts)
	}
	kids := []sexp.Sexp{
		sexp.String("k-of-n"),
		sexp.String(strconv.Itoa(k)),
		sexp.String(strconv.Itoa(len(c.Parts))),
	}
	for _, p := range c.Parts {
		kids = append(kids, p.Sexp())
	}
	return sexp.List(kids...)
}
func (c Conj) Key() string { return c.Sexp().Key() }
func (c Conj) String() string {
	names := make([]string, len(c.Parts))
	for i, p := range c.Parts {
		names[i] = p.String()
	}
	k := c.K
	if k == 0 {
		k = len(c.Parts)
	}
	if k == len(c.Parts) {
		return "(" + strings.Join(names, " ∧ ") + ")"
	}
	return fmt.Sprintf("(%d-of-%d %s)", k, len(c.Parts), strings.Join(names, " "))
}

// IsFullConjunction reports whether every part must agree.
func (c Conj) IsFullConjunction() bool {
	return c.K == 0 || c.K == len(c.Parts)
}

// --- quoting principal --------------------------------------------------

// Quote is Lampson's quoting principal B|A: B claiming to speak on
// behalf of A. The multiplexing gateway of section 6.3 is the
// motivating use.
type Quote struct {
	Quoter Principal // B, the party actually speaking
	Quotee Principal // A, on whose behalf B claims to speak
}

// QuoteOf builds quoter|quotee.
func QuoteOf(quoter, quotee Principal) Quote {
	return Quote{Quoter: quoter, Quotee: quotee}
}

func (q Quote) Sexp() sexp.Sexp {
	return sexp.List(sexp.String("quoting"), q.Quoter.Sexp(), q.Quotee.Sexp())
}
func (q Quote) Key() string    { return q.Sexp().Key() }
func (q Quote) String() string { return q.Quoter.String() + "|" + q.Quotee.String() }

// --- channel principal ---------------------------------------------------

// Channel kinds.
const (
	ChannelSecure = "secure" // cryptographic network channel (section 5.1)
	ChannelLocal  = "local"  // host-vouched in-process channel (section 5.2)
)

// Channel is a communication channel as a principal: it says any
// message emanating from it. Binding identifies the concrete channel
// instance (a session id derived from the key exchange, or the local
// registry's pipe id).
type Channel struct {
	Kind    string
	Binding []byte
}

// ChannelOf builds a channel principal.
func ChannelOf(kind string, binding []byte) Channel {
	return Channel{Kind: kind, Binding: append([]byte(nil), binding...)}
}

func (c Channel) Sexp() sexp.Sexp {
	return sexp.List(sexp.String("channel"), sexp.String(c.Kind), sexp.Atom(c.Binding))
}
func (c Channel) Key() string { return c.Sexp().Key() }
func (c Channel) String() string {
	b := c.Binding
	if len(b) > 4 {
		b = b[:4]
	}
	return "CH-" + c.Kind + "(" + hex.EncodeToString(b) + ")"
}

// --- MAC principal ----------------------------------------------------------

// MAC is a shared-secret message-authentication-code key as a
// principal (the signed-request optimization of section 5.3.1). It is
// named by the hash of the secret so the principal itself reveals
// nothing.
type MAC struct {
	KeyHash []byte
}

// MACOf names the MAC principal for a secret.
func MACOf(secret []byte) MAC {
	return MAC{KeyHash: sfkey.HashBytes(secret)}
}

func (m MAC) Sexp() sexp.Sexp {
	return sexp.List(sexp.String("mac"), sexp.String(sfkey.HashAlg), sexp.Atom(m.KeyHash))
}
func (m MAC) Key() string { return m.Sexp().Key() }
func (m MAC) String() string {
	d := m.KeyHash
	if len(d) > 4 {
		d = d[:4]
	}
	return "MAC(" + hex.EncodeToString(d) + ")"
}

// --- pseudo principal -----------------------------------------------------

// Pseudo is the placeholder principal "?" of section 6.3: a gateway's
// challenge may name the compound principal "gateway quoting ?", and
// the client substitutes its own identity — a shortcut that saves a
// round trip to discover the client's identity.
type Pseudo struct{}

func (Pseudo) Sexp() sexp.Sexp { return sexp.List(sexp.String("pseudo")) }
func (p Pseudo) Key() string   { return p.Sexp().Key() }
func (Pseudo) String() string  { return "?" }

// SubstitutePseudo replaces every Pseudo inside p with actual,
// recursing through compound principals.
func SubstitutePseudo(p, actual Principal) Principal {
	switch v := p.(type) {
	case Pseudo:
		return actual
	case Quote:
		return Quote{
			Quoter: SubstitutePseudo(v.Quoter, actual),
			Quotee: SubstitutePseudo(v.Quotee, actual),
		}
	case Name:
		return Name{Base: SubstitutePseudo(v.Base, actual), Path: v.Path}
	case Conj:
		parts := make([]Principal, len(v.Parts))
		for i, pt := range v.Parts {
			parts[i] = SubstitutePseudo(pt, actual)
		}
		return Conj{K: v.K, Parts: parts}
	default:
		return p
	}
}

// --- parsing ------------------------------------------------------------

// FromSexp decodes any principal form.
func FromSexp(e sexp.Sexp) (Principal, error) {
	if e == nil || !e.IsList() {
		return nil, fmt.Errorf("principal: not a principal expression")
	}
	switch e.Tag() {
	case "public-key":
		pub, err := sfkey.PublicFromSexp(e)
		if err != nil {
			return nil, err
		}
		return Key{Pub: pub}, nil
	case "hash":
		if e.Len() != 3 || !e.Nth(1).IsAtom() || !e.Nth(2).IsAtom() {
			return nil, fmt.Errorf("principal: malformed hash")
		}
		return Hash{Alg: e.Nth(1).Text(), Digest: append([]byte(nil), e.Nth(2).Bytes()...)}, nil
	case "name":
		if e.Len() < 3 {
			return nil, fmt.Errorf("principal: malformed name")
		}
		base, err := FromSexp(e.Nth(1))
		if err != nil {
			return nil, fmt.Errorf("principal: name base: %w", err)
		}
		var path []string
		for i := 2; i < e.Len(); i++ {
			if !e.Nth(i).IsAtom() {
				return nil, fmt.Errorf("principal: name path element %d not an atom", i)
			}
			path = append(path, e.Nth(i).Text())
		}
		return Name{Base: base, Path: path}, nil
	case "k-of-n":
		if e.Len() < 4 {
			return nil, fmt.Errorf("principal: malformed k-of-n")
		}
		k, err := strconv.Atoi(e.Nth(1).Text())
		if err != nil {
			return nil, fmt.Errorf("principal: k-of-n k: %w", err)
		}
		n, err := strconv.Atoi(e.Nth(2).Text())
		if err != nil {
			return nil, fmt.Errorf("principal: k-of-n n: %w", err)
		}
		if n != e.Len()-3 || k < 1 || k > n {
			return nil, fmt.Errorf("principal: k-of-n arity mismatch k=%d n=%d parts=%d", k, n, e.Len()-3)
		}
		parts := make([]Principal, 0, n)
		for i := 3; i < e.Len(); i++ {
			p, err := FromSexp(e.Nth(i))
			if err != nil {
				return nil, fmt.Errorf("principal: k-of-n part: %w", err)
			}
			parts = append(parts, p)
		}
		return Conj{K: k, Parts: parts}, nil
	case "quoting":
		if e.Len() != 3 {
			return nil, fmt.Errorf("principal: malformed quoting")
		}
		quoter, err := FromSexp(e.Nth(1))
		if err != nil {
			return nil, fmt.Errorf("principal: quoter: %w", err)
		}
		quotee, err := FromSexp(e.Nth(2))
		if err != nil {
			return nil, fmt.Errorf("principal: quotee: %w", err)
		}
		return Quote{Quoter: quoter, Quotee: quotee}, nil
	case "channel":
		if e.Len() != 3 || !e.Nth(1).IsAtom() || !e.Nth(2).IsAtom() {
			return nil, fmt.Errorf("principal: malformed channel")
		}
		return Channel{Kind: e.Nth(1).Text(), Binding: append([]byte(nil), e.Nth(2).Bytes()...)}, nil
	case "mac":
		if e.Len() != 3 || !e.Nth(1).IsAtom() || !e.Nth(2).IsAtom() {
			return nil, fmt.Errorf("principal: malformed mac")
		}
		return MAC{KeyHash: append([]byte(nil), e.Nth(2).Bytes()...)}, nil
	case "pseudo":
		return Pseudo{}, nil
	default:
		return nil, fmt.Errorf("principal: unknown principal form %q", e.Tag())
	}
}

// Parse decodes a principal from its textual encoding.
func Parse(s string) (Principal, error) {
	e, err := sexp.ParseOne([]byte(s))
	if err != nil {
		return nil, err
	}
	return FromSexp(e)
}

// HashMatchesKey reports whether hash principal h names public key
// pub; the verification behind the hash-identity proof rule.
func HashMatchesKey(h Hash, pub sfkey.PublicKey) bool {
	return h.Alg == sfkey.HashAlg && bytes.Equal(h.Digest, pub.Hash())
}
