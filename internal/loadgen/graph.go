package loadgen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/emaildb"
	"repro/internal/principal"
	"repro/internal/sfkey"
)

// Graph is the synthetic delegation world one run drives: the
// database domain, its organization-level issuers, and K principals
// whose mailbox authority chains db → org → principal, with each
// principal additionally handing its gateway a quoting delegation
// (the section 6.3 shape: "G quoting C speaks for C"). Everything is
// a pure function of (Config.Seed, Config.Now): keys come from seeded
// derivation and ed25519 signing is deterministic, so two builds with
// the same seed are byte-identical — the property the determinism
// test pins and the reason benchmark runs are comparable.
type Graph struct {
	DBKey    *sfkey.PrivateKey
	DBIssuer principal.Principal

	GatewayKeys []*sfkey.PrivateKey
	OrgKeys     []*sfkey.PrivateKey
	OrgRoots    []*cert.Cert // db → org, tag ("db"), one per org
	// ChurnKey signs the throwaway certificates and CRLs the churn
	// workers cycle; it is deliberately NOT part of any principal's
	// chain, so churn invalidates caches without revoking real load.
	ChurnKey *sfkey.PrivateKey

	Principals []*Synthetic

	// Certs is every certificate the mesh must hold before load
	// starts, in deterministic order: org roots, then per-principal
	// grant and handoff.
	Certs []*cert.Cert

	// Schedule is the warm-flow target sequence: Schedule[i] is the
	// principal index the i-th warm request admits as, zipf-skewed so
	// a head of hot principals dominates — the shape proof caches are
	// for.
	Schedule []int

	// Validity is the window every generated certificate carries.
	Validity core.Validity
}

// Synthetic is one generated principal and its delegation chain.
type Synthetic struct {
	Index int
	Key   *sfkey.PrivateKey
	Prin  principal.Principal
	Owner string // mailbox this principal owns
	Org   int    // issuing organization
	// Gateway and HomeDir pin the principal to an admission gateway
	// and the directory its certificates are published at, spreading
	// load round-robin while keeping cross-directory discovery in
	// play (a gateway's home directory usually is not the publish
	// point of the principals it admits).
	Gateway int
	HomeDir int
	// Grant is org → principal over OwnerTag(Owner); Handoff is
	// principal → (gateway quoting principal) over the same tag.
	// Revoking Grant severs the principal's authority entirely.
	Grant   *cert.Cert
	Handoff *cert.Cert
}

// BuildGraph generates the delegation world for cfg.
func BuildGraph(cfg Config) (*Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	now := cfg.now()
	// One generous window for the whole run: load measurement should
	// never race certificate expiry.
	v := core.Between(now.Add(-time.Minute), now.Add(12*time.Hour))
	rng := rand.New(rand.NewSource(cfg.Seed))

	g := &Graph{
		DBKey:    sfkey.FromSeed([]byte(fmt.Sprintf("loadgen-%d-db", cfg.Seed))),
		ChurnKey: sfkey.FromSeed([]byte(fmt.Sprintf("loadgen-%d-churn", cfg.Seed))),
		Validity: v,
	}
	g.DBIssuer = principal.KeyOf(g.DBKey.Public())

	for i := 0; i < cfg.Gateways; i++ {
		g.GatewayKeys = append(g.GatewayKeys, sfkey.FromSeed([]byte(fmt.Sprintf("loadgen-%d-gw%d", cfg.Seed, i))))
	}

	// Organization layer: the database delegates all-mailbox authority
	// to each org, which then narrows per member. Orgs are the issuer
	// fan-out knob: member counts are zipf-skewed below.
	for i := 0; i < cfg.Orgs; i++ {
		k := sfkey.FromSeed([]byte(fmt.Sprintf("loadgen-%d-org%d", cfg.Seed, i)))
		g.OrgKeys = append(g.OrgKeys, k)
		root, err := cert.Delegate(g.DBKey, principal.KeyOf(k.Public()), g.DBIssuer, emaildb.AllTag(), v)
		if err != nil {
			return nil, fmt.Errorf("loadgen: org root: %w", err)
		}
		g.OrgRoots = append(g.OrgRoots, root)
		g.Certs = append(g.Certs, root)
	}

	orgZipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Orgs-1))
	for i := 0; i < cfg.Principals; i++ {
		key := sfkey.FromSeed([]byte(fmt.Sprintf("loadgen-%d-p%d", cfg.Seed, i)))
		p := &Synthetic{
			Index:   i,
			Key:     key,
			Prin:    principal.KeyOf(key.Public()),
			Owner:   fmt.Sprintf("u%05d", i),
			Org:     int(orgZipf.Uint64()),
			Gateway: i % cfg.Gateways,
			HomeDir: i % cfg.Directories,
		}
		t := emaildb.OwnerTag(p.Owner)
		grant, err := cert.Delegate(g.OrgKeys[p.Org], p.Prin, principal.KeyOf(g.OrgKeys[p.Org].Public()), t, v)
		if err != nil {
			return nil, fmt.Errorf("loadgen: grant: %w", err)
		}
		gwPrin := principal.KeyOf(g.GatewayKeys[p.Gateway].Public())
		handoff, err := cert.Delegate(key, principal.QuoteOf(gwPrin, p.Prin), p.Prin, t, v)
		if err != nil {
			return nil, fmt.Errorf("loadgen: handoff: %w", err)
		}
		p.Grant, p.Handoff = grant, handoff
		g.Principals = append(g.Principals, p)
		g.Certs = append(g.Certs, grant, handoff)
	}

	reqZipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Principals-1))
	g.Schedule = make([]int, cfg.WarmOps)
	for i := range g.Schedule {
		g.Schedule[i] = int(reqZipf.Uint64())
	}
	return g, nil
}

// Fingerprint hashes every generated certificate's canonical bytes
// and the request schedule — the byte identity the determinism test
// compares.
func (g *Graph) Fingerprint() string {
	h := sha256.New()
	for _, c := range g.Certs {
		h.Write(c.Sexp().Canonical())
	}
	var buf [8]byte
	for _, i := range g.Schedule {
		binary.LittleEndian.PutUint64(buf[:], uint64(i))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
