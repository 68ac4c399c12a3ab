package certdir

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/principal"
	"repro/internal/sfkey"
	"repro/internal/tag"
)

// indexTestTags mixes the grant shapes a directory holds: literals,
// the emaildb (db (owner x)) shape and its shorter prefixes, lists
// ending in star forms, prefixes, sets and (*).
var indexTestTags = []tag.Tag{
	tag.All(),
	tag.Literal("read"), tag.Literal("write"),
	tag.Prefix("re"),
	tag.SetOf(tag.Literal("read"), tag.Literal("write")),
	tag.MustParse("(db (owner x))"),
	tag.MustParse("(db (owner y))"),
	tag.MustParse("(db (owner z))"),
	tag.MustParse("(db (owner))"),
	tag.MustParse("(db)"),
	tag.MustParse("(db (*))"),
	tag.MustParse("(db (owner (* set x y)))"),
	tag.MustParse("(db (owner x) read)"),
	tag.MustParse("(files (* prefix /tmp/))"),
	tag.MustParse("()"),
}

// dirModel is the test's own record of what a store holds: every live
// certificate per issuer, in publish order.
type dirModel map[string][]*cert.Cert

// scan is the linear-scan reference ByIssuerFiltered must equal.
func (m dirModel) scan(issuerK string, now time.Time, f QueryFilter) []*cert.Cert {
	var out []*cert.Cert
	for _, c := range m[issuerK] {
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
		if c.Body.Validity.Contains(now) && (!f.Tag.Valid() || tag.Covers(c.Body.Tag, f.Tag)) {
			out = append(out, c)
		}
	}
	return out
}

// drop removes the certificates keep rejects.
func (m dirModel) drop(keep func(*cert.Cert) bool) {
	for k, cs := range m {
		var kept []*cert.Cert
		for _, c := range cs {
			if keep(c) {
				kept = append(kept, c)
			}
		}
		m[k] = kept
	}
}

// TestByIssuerFilteredMatchesScan checks that the issuer tag-path index
// changes the cost of a query, never its answer: for every issuer,
// query tag and limit, ByIssuerFiltered returns exactly the
// certificates, in exactly the order, of a linear scan over publish
// order — on a seeded random store, at a time when some certificates
// have expired unswept, and again after Remove, EvictRevoked and
// Sweep.
func TestByIssuerFilteredMatchesScan(t *testing.T) {
	now := time.Now()
	later := now.Add(30 * time.Minute)
	rng := rand.New(rand.NewSource(1))
	st := NewStore(4)
	model := dirModel{}
	var issuers []*sfkey.PrivateKey
	for i := 0; i < 4; i++ {
		issuers = append(issuers, sfkey.FromSeed([]byte(fmt.Sprintf("index-issuer-%d", i))))
	}
	var certs []*cert.Cert
	for i := 0; i < 160; i++ {
		iss := issuers[rng.Intn(len(issuers))]
		subj := principal.KeyOf(sfkey.FromSeed([]byte(fmt.Sprintf("index-subject-%d", i))).Public())
		v := core.Until(now.Add(time.Hour))
		if rng.Intn(4) == 0 {
			v = core.Between(now.Add(-time.Minute), now.Add(10*time.Minute)) // expired at later
		}
		c := delegate(t, iss, subj, indexTestTags[rng.Intn(len(indexTestTags))], v)
		if _, err := st.Publish(c, now); err != nil {
			t.Fatal(err)
		}
		k := c.Body.Issuer.Key()
		model[k] = append(model[k], c)
		certs = append(certs, c)
	}
	wants := append([]tag.Tag{
		tag.MustParse("(db (owner x) write)"),
		tag.MustParse("(db (owner w))"),
		tag.MustParse("(files /tmp/a)"),
		tag.Literal("rename"),
	}, indexTestTags...)

	check := func(stage string) {
		t.Helper()
		for _, at := range []time.Time{now, later} {
			for _, iss := range issuers {
				p := principal.KeyOf(iss.Public())
				for _, want := range append(wants, tag.Tag{}) {
					for _, limit := range []int{0, 1, 3} {
						f := QueryFilter{Tag: want, Limit: limit}
						got := st.ByIssuerFiltered(p, at, f)
						ref := model.scan(p.Key(), at, f)
						if len(got) != len(ref) {
							t.Fatalf("%s: ByIssuerFiltered(%s, %s, limit %d) has %d certs, scan %d", stage, p, want, limit, len(got), len(ref))
						}
						for i := range got {
							if !bytes.Equal(got[i].Hash(), ref[i].Hash()) {
								t.Fatalf("%s: ByIssuerFiltered(%s, %s, limit %d)[%d] differs from the scan", stage, p, want, limit, i)
							}
						}
					}
				}
			}
		}
	}
	check("published")

	gone := map[string]bool{}
	for _, c := range certs[:20] {
		if !st.Remove(c.Hash()) {
			t.Fatal("Remove missed a stored cert")
		}
		gone[string(c.Hash())] = true
	}
	model.drop(func(c *cert.Cert) bool { return !gone[string(c.Hash())] })
	check("after Remove")

	var revoked [][]byte
	for _, c := range certs[20:] {
		if c.Signer.Equal(issuers[0].Public()) && len(revoked) < 10 {
			revoked = append(revoked, c.Hash())
			gone[string(c.Hash())] = true
		}
	}
	rs := cert.NewRevocationStore()
	if _, errs := rs.Add(cert.NewRevocationList(issuers[0], core.Until(now.Add(time.Hour)), revoked...)); errs[0] != nil {
		t.Fatal(errs[0])
	}
	if n := st.EvictRevoked(rs.RevokedAt(now)); n != len(revoked) {
		t.Fatalf("evicted %d, want %d", n, len(revoked))
	}
	model.drop(func(c *cert.Cert) bool { return !gone[string(c.Hash())] })
	check("after EvictRevoked")

	if n := st.Sweep(later); n == 0 {
		t.Fatal("sweep dropped nothing; the fixture needs expired certificates")
	}
	model.drop(func(c *cert.Cert) bool { return c.Body.Validity.Contains(later) })
	check("after Sweep")
}

// TestByIssuerFilteredHostileTag asks for a ~1 MiB flat list tag, the
// largest a query body carries: the index walks it once, so the answer
// comes back at scan speed instead of building a key per prefix.
func TestByIssuerFilteredHostileTag(t *testing.T) {
	now := time.Now()
	iss := sfkey.FromSeed([]byte("hostile-issuer"))
	st := NewStore(1)
	for i, tg := range append(indexTestTags, tag.MustParse("(a a)"), tag.MustParse("(a)")) {
		subj := principal.KeyOf(sfkey.FromSeed([]byte(fmt.Sprintf("hostile-subject-%d", i))).Public())
		if _, err := st.Publish(delegate(t, iss, subj, tg, core.Until(now.Add(time.Hour))), now); err != nil {
			t.Fatal(err)
		}
	}
	elems := make([]tag.Tag, 350_000)
	for i := range elems {
		elems[i] = tag.Literal("a")
	}
	want := tag.ListOf(elems...)
	start := time.Now()
	got := st.ByIssuerFiltered(principal.KeyOf(iss.Public()), now, QueryFilter{Tag: want})
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("a 1 MiB query tag took %v", d)
	}
	// (*), (), (a) and (a a) cover the flat list: shorter lists are
	// more permissive.
	if len(got) != 4 {
		t.Fatalf("answer has %d certificates, want 4", len(got))
	}
}
