package prover

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/principal"
	"repro/internal/tag"
)

// edgeIndexTags mixes literal, structured, shorter-list, star-form and
// set grants, so the edge index's narrowing is exercised at every
// depth of the tag path.
var edgeIndexTags = []tag.Tag{
	tag.All(),
	tag.Literal("read"), tag.Literal("write"),
	tag.Prefix("re"),
	tag.SetOf(tag.Literal("read"), tag.MustParse("(db (owner y))")),
	tag.MustParse("(db (owner x))"),
	tag.MustParse("(db (owner y))"),
	tag.MustParse("(db (owner))"),
	tag.MustParse("(db)"),
	tag.MustParse("(db (*))"),
	tag.MustParse("(db (owner x) read)"),
	tag.MustParse("()"),
}

// TestEdgesForMatchesCoverScan checks that the edge index changes the
// cost of a lookup, never its result: for random edge sets, edgesFor
// returns every edge whose tag covers want, and everything it returns
// is in insertion order — also after Sweep and Invalidate rebuild the
// index.
func TestEdgesForMatchesCoverScan(t *testing.T) {
	later := now.Add(30 * time.Minute)
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		issuers := []party{mkParty("edgeindex-a"), mkParty("edgeindex-b")}
		p := New()
		var added []*cert.Cert // insertion order
		for i := 0; i < 120; i++ {
			iss := issuers[rng.Intn(len(issuers))]
			subj := principal.KeyOf(mkParty(fmt.Sprintf("edgeindex-subject-%d-%d", seed, i)).pr.Pub)
			v := core.Forever
			if rng.Intn(4) == 0 {
				v = core.Between(now.Add(-time.Minute), now.Add(10*time.Minute))
			}
			c, err := cert.Delegate(iss.priv, subj, iss.pr, edgeIndexTags[rng.Intn(len(edgeIndexTags))], v)
			if err != nil {
				t.Fatal(err)
			}
			p.AddProof(c)
			added = append(added, c)
		}
		wants := append([]tag.Tag{tag.MustParse("(db (owner x) write)"), tag.Literal("rename")}, edgeIndexTags...)
		live := map[string]bool{}
		for _, c := range added {
			live[string(c.Hash())] = true
		}
		check := func(stage string) {
			t.Helper()
			for _, iss := range issuers {
				for _, want := range wants {
					pos := -1
					var covering [][]byte
					for _, e := range p.edgesFor(iss.pr.Key(), want) {
						c := e.proof.(*cert.Cert)
						i := indexOf(added, c)
						if i <= pos {
							t.Fatalf("seed %d %s: edgesFor(%s) out of insertion order", seed, stage, want)
						}
						pos = i
						if tag.Covers(c.Body.Tag, want) {
							covering = append(covering, c.Hash())
						}
					}
					var ref [][]byte
					for _, c := range added {
						if live[string(c.Hash())] && principal.Equal(c.Body.Issuer, iss.pr) && tag.Covers(c.Body.Tag, want) {
							ref = append(ref, c.Hash())
						}
					}
					if len(covering) != len(ref) {
						t.Fatalf("seed %d %s: edgesFor(%s) yields %d covering edges, the scan %d", seed, stage, want, len(covering), len(ref))
					}
					for i := range ref {
						if !bytes.Equal(covering[i], ref[i]) {
							t.Fatalf("seed %d %s: edgesFor(%s) covering edge %d differs from the scan", seed, stage, want, i)
						}
					}
				}
			}
		}
		check("added")

		if n := p.Sweep(later); n == 0 {
			t.Fatalf("seed %d: sweep dropped nothing; the fixture needs expiring edges", seed)
		}
		for _, c := range added {
			if !c.Body.Validity.Contains(later) {
				live[string(c.Hash())] = false
			}
		}
		check("after Sweep")

		var gone [][]byte
		for _, c := range added {
			if live[string(c.Hash())] && rng.Intn(3) == 0 {
				gone = append(gone, c.Hash())
				live[string(c.Hash())] = false
			}
		}
		if n := p.Invalidate(gone, nil); n != len(gone) {
			t.Fatalf("seed %d: invalidated %d edges, want %d", seed, n, len(gone))
		}
		check("after Invalidate")
	}
}

func indexOf(cs []*cert.Cert, c *cert.Cert) int {
	for i, x := range cs {
		if x == c {
			return i
		}
	}
	return -1
}
