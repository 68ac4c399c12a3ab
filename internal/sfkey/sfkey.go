// Package sfkey provides the cryptographic identities of Snowflake
// principals: Ed25519 signing keys with SPKI S-expression encodings,
// and the hashing used to name keys, documents, and requests.
//
// Substitution note (DESIGN.md section 3): the paper used 1024-bit RSA
// and MD5 on 1999 hardware; we use Ed25519 and SHA-256. The roles are
// identical — one public-key operation per delegation or channel
// setup, one hash per request or document.
package sfkey

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync/atomic"

	"repro/internal/sexp"
)

// HashAlg names the hash algorithm used throughout the system.
const HashAlg = "sha256"

// PublicKey is an Ed25519 public key with S-expression encoding
// (public-key (ed25519 |octets|)).
type PublicKey struct {
	Raw ed25519.PublicKey
}

// PrivateKey holds an Ed25519 private key and its public half.
type PrivateKey struct {
	Raw ed25519.PrivateKey
}

// Generate creates a fresh key pair from crypto/rand.
func Generate() (*PrivateKey, error) {
	_, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("sfkey: generate: %w", err)
	}
	return &PrivateKey{Raw: priv}, nil
}

// FromSeed derives a deterministic key pair from a 32-byte seed; used
// by tests and the benchmark harness for reproducible identities.
func FromSeed(seed []byte) *PrivateKey {
	h := sha256.Sum256(seed)
	return &PrivateKey{Raw: ed25519.NewKeyFromSeed(h[:])}
}

// Public returns the public half.
func (k *PrivateKey) Public() PublicKey {
	return PublicKey{Raw: k.Raw.Public().(ed25519.PublicKey)}
}

// Sign signs msg and returns the signature octets.
func (k *PrivateKey) Sign(msg []byte) []byte {
	return ed25519.Sign(k.Raw, msg)
}

// Bytes returns the private key bytes (seed || public).
func (k *PrivateKey) Bytes() []byte {
	return append([]byte(nil), k.Raw...)
}

// PrivateFromBytes reconstructs a private key from Bytes output.
func PrivateFromBytes(b []byte) (*PrivateKey, error) {
	if len(b) != ed25519.PrivateKeySize {
		return nil, fmt.Errorf("sfkey: bad private key length %d", len(b))
	}
	return &PrivateKey{Raw: append(ed25519.PrivateKey(nil), b...)}, nil
}

// sigVerifies counts public-key signature verifications performed by
// the process. Signature checks dominate the cold authorization path,
// so the warm-path benchmarks and tests measure cache effectiveness
// as a ratio of this counter.
var sigVerifies atomic.Int64

// SigVerifies returns the process-wide signature-verification count.
func SigVerifies() int64 { return sigVerifies.Load() }

// Verify checks sig over msg under k.
func (k PublicKey) Verify(msg, sig []byte) bool {
	if len(k.Raw) != ed25519.PublicKeySize {
		return false
	}
	sigVerifies.Add(1)
	return ed25519.Verify(k.Raw, msg, sig)
}

// Sexp encodes the key as (public-key (ed25519 |octets|)).
func (k PublicKey) Sexp() sexp.Sexp {
	return sexp.List(
		sexp.String("public-key"),
		sexp.List(sexp.String("ed25519"), sexp.Atom(k.Raw)),
	)
}

// PublicFromSexp decodes a (public-key (ed25519 |octets|)) form.
func PublicFromSexp(e sexp.Sexp) (PublicKey, error) {
	if e == nil || e.Tag() != "public-key" || e.Len() != 2 {
		return PublicKey{}, fmt.Errorf("sfkey: not a public-key expression")
	}
	alg := e.Nth(1)
	if alg.Tag() != "ed25519" || alg.Len() != 2 || !alg.Nth(1).IsAtom() {
		return PublicKey{}, fmt.Errorf("sfkey: unsupported key algorithm %q", alg.Tag())
	}
	raw := alg.Nth(1).Bytes()
	if len(raw) != ed25519.PublicKeySize {
		return PublicKey{}, fmt.Errorf("sfkey: bad ed25519 key length %d", len(raw))
	}
	return PublicKey{Raw: append(ed25519.PublicKey(nil), raw...)}, nil
}

// Hash returns the SHA-256 hash of the key's canonical S-expression;
// this is the digest used by hash principals ("HK" in the paper's
// Figure 1).
func (k PublicKey) Hash() []byte {
	sum := sha256.Sum256(k.Sexp().Canonical())
	return sum[:]
}

// Equal reports whether two public keys are identical.
func (k PublicKey) Equal(o PublicKey) bool {
	return string(k.Raw) == string(o.Raw)
}

// Fingerprint returns a short hex form of the key hash for logs.
func (k PublicKey) Fingerprint() string {
	return hex.EncodeToString(k.Hash()[:8])
}

// HashBytes hashes arbitrary octets with the system hash; used for
// request and document principals.
func HashBytes(b []byte) []byte {
	sum := sha256.Sum256(b)
	return sum[:]
}
