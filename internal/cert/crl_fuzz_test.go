package cert

import (
	"testing"

	"repro/internal/sexp"
)

// FuzzRevocationList feeds arbitrary bytes to the CRL decoder, the
// path every network-supplied list takes (admin endpoint, gossip,
// snapshot, follower). Whatever decodes must survive the encoding
// cycle: re-encoding and decoding again yields the same content hash
// — the identity installs dedup on and gossip diffs by — and the same
// signature verdict. Verify must never panic, whatever the signer,
// signature or hash shapes. The checked-in corpus
// (testdata/fuzz/FuzzRevocationList) seeds a valid list, a tampered
// signature, an empty list and a non-atom revoked child.
func FuzzRevocationList(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		e, err := sexp.ParseOne(in)
		if err != nil {
			return
		}
		rl, err := RevocationListFromSexp(e)
		if err != nil {
			return
		}
		verdict := rl.Verify() == nil
		back, err := sexp.ParseOne(rl.Sexp().Canonical())
		if err != nil {
			t.Fatalf("re-encoded CRL does not parse: %v", err)
		}
		again, err := RevocationListFromSexp(back)
		if err != nil {
			t.Fatalf("re-encoded CRL does not decode: %v", err)
		}
		if again.Hash() != rl.Hash() {
			t.Fatalf("content hash unstable across re-encoding: %x != %x", again.Hash(), rl.Hash())
		}
		if (again.Verify() == nil) != verdict {
			t.Fatalf("signature verdict changed across re-encoding (was %v)", verdict)
		}
	})
}
