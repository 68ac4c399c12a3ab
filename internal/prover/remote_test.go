package prover

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/principal"
	"repro/internal/sfkey"
	"repro/internal/tag"
)

// fakeSource is an in-memory RemoteSource that answers the way a real
// directory does: only delegations whose tag covers the search tag,
// truncated to the limit. Queries arrive concurrently, so the call log
// is locked.
type fakeSource struct {
	mu        sync.Mutex
	byIssuer  map[string][]core.Proof
	bySubject map[string][]core.Proof
	calls     []fakeCall
	err       error
	// issuerOnly answers every by-subject question empty, so a chain
	// is discoverable only from the issuer side.
	issuerOnly bool
	// onAsk, when set, runs as each question arrives, before it is
	// answered.
	onAsk func(axis string, p principal.Principal)
}

// fakeCall is what one query asked for.
type fakeCall struct {
	axis  string // "i" by issuer, "s" by subject
	prin  string // the asked principal's key
	want  tag.Tag
	limit int
	trace string // obs trace id of the query's context
}

func newFakeSource() *fakeSource {
	return &fakeSource{
		byIssuer:  make(map[string][]core.Proof),
		bySubject: make(map[string][]core.Proof),
	}
}

func (f *fakeSource) add(p core.Proof) {
	c := p.Conclusion()
	f.byIssuer[c.Issuer.Key()] = append(f.byIssuer[c.Issuer.Key()], p)
	f.bySubject[c.Subject.Key()] = append(f.bySubject[c.Subject.Key()], p)
}

func (f *fakeSource) log() []fakeCall {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]fakeCall(nil), f.calls...)
}

func (f *fakeSource) queryCount() int { return len(f.log()) }

// asked counts the logged questions on one axis.
func (f *fakeSource) asked(axis string) int {
	n := 0
	for _, c := range f.log() {
		if c.axis == axis {
			n++
		}
	}
	return n
}

func (f *fakeSource) answer(ctx context.Context, axis string, p principal.Principal, want tag.Tag, limit int) ([]core.Proof, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls = append(f.calls, fakeCall{axis: axis, prin: p.Key(), want: want, limit: limit, trace: obs.FromContext(ctx).TraceID()})
	if f.onAsk != nil {
		f.onAsk(axis, p)
	}
	index := f.byIssuer
	if axis == "s" {
		if f.issuerOnly {
			return nil, f.err
		}
		index = f.bySubject
	}
	var out []core.Proof
	for _, pr := range index[p.Key()] {
		if limit > 0 && len(out) == limit {
			break
		}
		if tag.Covers(pr.Conclusion().Tag, want) {
			out = append(out, pr)
		}
	}
	return out, f.err
}

func (f *fakeSource) ByIssuerForCtx(ctx context.Context, p principal.Principal, want tag.Tag, limit int) ([]core.Proof, error) {
	return f.answer(ctx, "i", p, want, limit)
}

func (f *fakeSource) BySubjectForCtx(ctx context.Context, p principal.Principal, want tag.Tag, limit int) ([]core.Proof, error) {
	return f.answer(ctx, "s", p, want, limit)
}

// remoteChain builds keys k0..kn and certificates k(i+1) =t=> k(i),
// so k(n) speaks for k(0) through n hops.
func remoteChain(t *testing.T, seed string, hops int, tg tag.Tag, v core.Validity) ([]principal.Principal, []*cert.Cert) {
	t.Helper()
	keys := make([]*sfkey.PrivateKey, hops+1)
	prins := make([]principal.Principal, hops+1)
	for i := range keys {
		keys[i] = sfkey.FromSeed([]byte(fmt.Sprintf("%s-%d", seed, i)))
		prins[i] = principal.KeyOf(keys[i].Public())
	}
	certs := make([]*cert.Cert, hops)
	for i := 0; i < hops; i++ {
		c, err := cert.Delegate(keys[i], prins[i+1], prins[i], tg, v)
		if err != nil {
			t.Fatal(err)
		}
		certs[i] = c
	}
	return prins, certs
}

func TestRemoteCompletesPartialChain(t *testing.T) {
	now := time.Now()
	v := core.Until(now.Add(time.Hour))
	tg := tag.Prefix("doc")
	prins, certs := remoteChain(t, "partial", 3, tg, v)

	p := New()
	src := newFakeSource()
	p.AddRemote(src)
	// The first hop is already local; the rest only the source holds.
	p.AddProof(certs[0])
	src.add(certs[1])
	src.add(certs[2])

	proof, err := p.FindProof(prins[3], prins[0], tg, now)
	if err != nil {
		t.Fatalf("FindProof: %v", err)
	}
	ctx := core.NewVerifyContext()
	ctx.Now = now
	if err := core.Authorize(ctx, proof, prins[3], prins[0], tg); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.RemoteCerts != 2 {
		t.Fatalf("stats = %+v, want 2 remote certs", st)
	}
}

// TestRemoteSteersByAnswersDigestedBeside: an answer that a search
// running beside this one digested first still steers this search and
// sends it back to local search, so two overlapping searches that
// share a link both find their chains.
func TestRemoteSteersByAnswersDigestedBeside(t *testing.T) {
	now := time.Now()
	v := core.Until(now.Add(time.Hour))
	tg := tag.Prefix("doc")
	prins, certs := remoteChain(t, "beside", 2, tg, v)

	p := New()
	src := newFakeSource()
	src.add(certs[0])
	src.add(certs[1])
	// The other search digests the shared link k1 => k0 just as this
	// one asks for it.
	src.onAsk = func(axis string, q principal.Principal) {
		if axis == "s" && principal.Equal(q, prins[1]) {
			p.AddProof(certs[0])
		}
	}
	p.AddRemote(src)
	if _, err := p.FindProof(prins[2], prins[0], tg, now); err != nil {
		t.Fatalf("FindProof: %v", err)
	}
	if st := p.Stats(); st.RemoteQueries != 2 || st.RemoteCerts != 1 {
		t.Fatalf("stats = %+v, want 2 queries and 1 newly digested cert", st)
	}
}

// TestQueryTallyCountsOwnSearches: a context's tally holds the
// directory queries of searches made under it, and no others.
func TestQueryTallyCountsOwnSearches(t *testing.T) {
	now := time.Now()
	tg := tag.Prefix("doc")
	prins, certs := remoteChain(t, "tally", 1, tg, core.Until(now.Add(time.Hour)))
	p := New()
	src := newFakeSource()
	src.add(certs[0])
	p.AddRemote(src)

	ctxA, a := WithQueryTally(context.Background())
	_, b := WithQueryTally(context.Background())
	if _, err := p.FindProofCtx(ctxA, prins[1], prins[0], tg, now); err != nil {
		t.Fatal(err)
	}
	if _, err := p.FindProofCtx(ctxA, prins[1], prins[0], tg, now); err != nil {
		t.Fatal(err)
	}
	if a.Load() != 1 || b.Load() != 0 || p.Stats().RemoteQueries != 1 {
		t.Fatalf("tallies a=%d b=%d, prover %d; want the one query on a", a.Load(), b.Load(), p.Stats().RemoteQueries)
	}
}

func TestRemoteRejectsUnverifiable(t *testing.T) {
	now := time.Now()
	v := core.Until(now.Add(time.Hour))
	prins, certs := remoteChain(t, "forged", 1, tag.All(), v)

	forged := *certs[0]
	forged.Signature = append([]byte(nil), certs[0].Signature...)
	forged.Signature[0] ^= 1

	p := New()
	src := newFakeSource()
	src.add(&forged)
	p.AddRemote(src)

	if _, err := p.FindProof(prins[1], prins[0], tag.All(), now); err == nil {
		t.Fatal("accepted a proof built from a forged certificate")
	}
	st := p.Stats()
	if st.RemoteRejected == 0 {
		t.Fatalf("stats = %+v, forged cert not rejected", st)
	}
	if st.RemoteCerts != 0 || p.EdgeCount() != 0 {
		t.Fatalf("forged cert digested into the graph: %+v", st)
	}
}

// TestRemoteFanoutBound gives the prover a local frontier wider than
// DefaultRemoteFanout and a directory whose first issuer-side answer
// extends it: the budget covers the whole FindProof call — the
// subject-side question and the issuer fan-out together — so the
// second issuer round never starts.
func TestRemoteFanoutBound(t *testing.T) {
	now := time.Now()
	v := core.Until(now.Add(time.Hour))
	key := func(name string) *sfkey.PrivateKey { return sfkey.FromSeed([]byte("fanout-" + name)) }
	root := key("root")
	rootP := principal.KeyOf(root.Public())
	mustCert := func(subj principal.Principal) *cert.Cert {
		c, err := cert.Delegate(root, subj, rootP, tag.All(), v)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	p := New()
	for i := 0; i < 40; i++ {
		p.AddProof(mustCert(principal.KeyOf(key(fmt.Sprint(i)).Public())))
	}
	src := newFakeSource()
	src.add(mustCert(principal.KeyOf(key("remote").Public())))
	p.AddRemote(src)

	stranger := principal.KeyOf(key("stranger").Public())
	if _, err := p.FindProof(stranger, rootP, tag.All(), now); err == nil {
		t.Fatal("proved a goal nobody delegated")
	}
	if st := p.Stats(); st.RemoteCerts != 1 {
		t.Fatalf("stats = %+v, want the root query answered", st)
	}
	if n := src.queryCount(); n != DefaultRemoteFanout {
		t.Fatalf("spent %d queries on a 41-wide frontier, budget %d", n, DefaultRemoteFanout)
	}
}

// TestRemoteQueriesCarryTagLimitAndTrace pins what every discovery
// question says: the search tag (so the directory filters), the fetch
// cap, and the caller's trace (so the directory's span joins it).
func TestRemoteQueriesCarryTagLimitAndTrace(t *testing.T) {
	now := time.Now()
	v := core.Until(now.Add(time.Hour))
	tg := tag.Prefix("doc")
	prins, certs := remoteChain(t, "carry", 3, tg, v)
	src := newFakeSource()
	for _, c := range certs {
		src.add(c)
	}
	p := New()
	p.AddRemote(src)

	ctx, span := obs.NewRecorder(16).Start(context.Background(), "admit")
	defer span.End()
	if _, err := p.FindProofCtx(ctx, prins[3], prins[0], tg, now); err != nil {
		t.Fatalf("FindProofCtx: %v", err)
	}
	calls := src.log()
	if len(calls) == 0 {
		t.Fatal("no discovery queries")
	}
	wantTag := string(tg.Sexp().Canonical())
	for i, c := range calls {
		if got := string(c.want.Sexp().Canonical()); got != wantTag {
			t.Errorf("query %d: tag %s, want %s", i, got, wantTag)
		}
		if c.limit != DefaultRemoteLimit {
			t.Errorf("query %d: limit %d, want %d", i, c.limit, DefaultRemoteLimit)
		}
		if c.trace != span.TraceID() {
			t.Errorf("query %d: trace %q, want %q", i, c.trace, span.TraceID())
		}
	}
}

// TestNegativeCacheIsTagScoped pins the negative cache's key to the
// (query, tag) pair. A directory's "issuer X has nothing" is only true
// FOR THE TAG ASKED; a tag-blind cache would let a search for tag A
// poison a later search for tag B through the same issuer, failing
// proofs whose certificates sit in the directory the whole time. The
// shape below is the minimal reproduction: two branches under one
// root, each serving a different tag, probed one after the other
// within the negative TTL.
func TestNegativeCacheIsTagScoped(t *testing.T) {
	now := time.Now()
	v := core.Until(now.Add(time.Hour))
	tagA := tag.Prefix("doc")
	tagB := tag.Prefix("img")

	key := func(seed string) *sfkey.PrivateKey { return sfkey.FromSeed([]byte("negtag-" + seed)) }
	prin := func(k *sfkey.PrivateKey) principal.Principal { return principal.KeyOf(k.Public()) }
	root, org1, org2 := key("root"), key("org1"), key("org2")
	ka, ka2, kb, kb2 := key("a"), key("a2"), key("b"), key("b2")

	mustCert := func(signer *sfkey.PrivateKey, subj principal.Principal, iss principal.Principal, tg tag.Tag) *cert.Cert {
		c, err := cert.Delegate(signer, subj, iss, tg, v)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	// The directory answers only by issuer, so both searches walk the
	// issuer frontier through the org layer. Two org branches under
	// the root: org1 serves only tag A members, org2 only tag B.
	src := newFakeSource()
	src.issuerOnly = true
	src.add(mustCert(root, prin(org1), prin(root), tag.All()))
	src.add(mustCert(root, prin(org2), prin(root), tag.All()))
	src.add(mustCert(org1, prin(ka), prin(org1), tagA))
	src.add(mustCert(ka, prin(ka2), prin(ka), tagA))
	src.add(mustCert(org2, prin(kb), prin(org2), tagB))
	src.add(mustCert(kb, prin(kb2), prin(kb), tagB))

	p := New()
	p.AddRemote(src)

	// Search 1 (tag A) walks the frontier through both orgs; the
	// query "issued by org2, covering A" legitimately returns nothing
	// and is negative-cached.
	if _, err := p.FindProof(prin(ka2), prin(root), tagA, now); err != nil {
		t.Fatalf("tag A proof: %v", err)
	}
	// Search 2 (tag B) needs that same org2 issuer query — under tag
	// B, where the grant exists. A tag-blind cache suppresses it and
	// this proof fails despite every certificate being available.
	proof, err := p.FindProof(prin(kb2), prin(root), tagB, now)
	if err != nil {
		t.Fatalf("tag B proof poisoned by tag A negative cache: %v", err)
	}
	ctx := core.NewVerifyContext()
	ctx.Now = now
	if err := core.Authorize(ctx, proof, prin(kb2), prin(root), tagB); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteMergesSources(t *testing.T) {
	now := time.Now()
	v := core.Until(now.Add(time.Hour))
	prins, certs := remoteChain(t, "merge", 2, tag.All(), v)

	// Each directory holds half the chain; one of them also errors on
	// every subject query to exercise the degraded path.
	a, b := newFakeSource(), newFakeSource()
	a.add(certs[0])
	b.add(certs[1])

	p := New()
	p.AddRemote(a)
	p.AddRemote(b)
	proof, err := p.FindProof(prins[2], prins[0], tag.All(), now)
	if err != nil {
		t.Fatalf("FindProof across two sources: %v", err)
	}
	if err := proof.Verify(core.NewVerifyContext()); err != nil {
		t.Fatal(err)
	}
	if a.queryCount() == 0 || b.queryCount() == 0 {
		t.Fatalf("queries not spread: a=%d b=%d", a.queryCount(), b.queryCount())
	}
}

func TestRemoteSourceErrorDegrades(t *testing.T) {
	now := time.Now()
	v := core.Until(now.Add(time.Hour))
	prins, certs := remoteChain(t, "degraded", 1, tag.All(), v)

	dead := newFakeSource()
	dead.err = fmt.Errorf("directory unreachable")
	live := newFakeSource()
	live.add(certs[0])

	p := New()
	p.AddRemote(dead)
	p.AddRemote(live)
	if _, err := p.FindProof(prins[1], prins[0], tag.All(), now); err != nil {
		t.Fatalf("one dead directory broke discovery: %v", err)
	}
}

// TestRemoteMintsThroughClosure checks discovery composes with the
// paper's closure mechanism: the remote chain reaches a principal the
// prover controls, and the last hop is minted locally.
func TestRemoteMintsThroughClosure(t *testing.T) {
	now := time.Now()
	v := core.Until(now.Add(time.Hour))
	tg := tag.All()

	owner := sfkey.FromSeed([]byte("mint-owner"))
	team := sfkey.FromSeed([]byte("mint-team"))
	worker := sfkey.FromSeed([]byte("mint-worker"))
	ownerP := principal.KeyOf(owner.Public())
	teamP := principal.KeyOf(team.Public())
	workerP := principal.KeyOf(worker.Public())

	// The directory knows team =t=> owner; the prover controls team's
	// key and mints team -> worker on demand.
	c, err := cert.Delegate(owner, teamP, ownerP, tg, v)
	if err != nil {
		t.Fatal(err)
	}
	src := newFakeSource()
	src.add(c)

	p := New()
	p.AddRemote(src)
	p.AddClosure(NewKeyClosure(team))

	proof, err := p.FindProof(workerP, ownerP, tg, now)
	if err != nil {
		t.Fatalf("FindProof: %v", err)
	}
	ctx := core.NewVerifyContext()
	ctx.Now = now
	if err := core.Authorize(ctx, proof, workerP, ownerP, tg); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Minted != 1 || st.RemoteCerts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// quotedWorld is the gateway's view of one cold admit: the database
// delegates to orgs, an org grants a client C its mailbox tag, and C
// hands the gateway "gw quoting C" the same tag. The prover holds the
// gateway key and a channel key K as closures and the org roots
// locally; every grant and handoff lives only in the directory. The
// goal is "K quoting C speaks for the database".
type quotedWorld struct {
	db      principal.Principal
	clients []principal.Principal
	tags    []tag.Tag
	roots   []*cert.Cert
	gw, ch  *sfkey.PrivateKey
	src     *fakeSource
}

func newQuotedWorld(tb testing.TB, orgs, clients int, now time.Time) *quotedWorld {
	tb.Helper()
	v := core.Until(now.Add(time.Hour))
	key := func(name string, i int) *sfkey.PrivateKey {
		return sfkey.FromSeed([]byte(fmt.Sprintf("quoted-%s-%d", name, i)))
	}
	must := func(c *cert.Cert, err error) *cert.Cert {
		if err != nil {
			tb.Fatal(err)
		}
		return c
	}
	dbK := key("db", 0)
	w := &quotedWorld{db: principal.KeyOf(dbK.Public()), gw: key("gw", 0), ch: key("channel", 0), src: newFakeSource()}
	gwP := principal.KeyOf(w.gw.Public())
	orgKeys := make([]*sfkey.PrivateKey, orgs)
	for i := range orgKeys {
		orgKeys[i] = key("org", i)
		root := must(cert.Delegate(dbK, principal.KeyOf(orgKeys[i].Public()), w.db, tag.ListOf(tag.Literal("db")), v))
		w.roots = append(w.roots, root)
		w.src.add(root)
	}
	for i := 0; i < clients; i++ {
		ck, org := key("client", i), orgKeys[i%orgs]
		cP := principal.KeyOf(ck.Public())
		t := tag.ListOf(tag.Literal("db"), tag.ListOf(tag.Literal("owner"), tag.Literal(fmt.Sprintf("u%05d", i))))
		w.src.add(must(cert.Delegate(org, cP, principal.KeyOf(org.Public()), t, v)))
		w.src.add(must(cert.Delegate(ck, principal.QuoteOf(gwP, cP), cP, t, v)))
		w.clients = append(w.clients, cP)
		w.tags = append(w.tags, t)
	}
	return w
}

// prover returns a fresh gateway-side prover over the world: both
// closures, the org roots, the directory.
func (w *quotedWorld) prover() *Prover {
	p := New()
	p.AddClosure(NewKeyClosure(w.gw))
	p.AddClosure(NewKeyClosure(w.ch))
	for _, r := range w.roots {
		p.AddProof(r)
	}
	p.AddRemote(w.src)
	return p
}

// subject is "K quoting client i".
func (w *quotedWorld) subject(i int) principal.Principal {
	return principal.QuoteOf(principal.KeyOf(w.ch.Public()), w.clients[i])
}

// TestRemoteWalksUpFromQuotedSubject pins the cold admit's discovery:
// the walk starts at K|C and at gw|C (the gateway closure reached for
// free), finds the handoff, steps to C, finds the grant, and meets
// the local org root — three by-subject questions, no issuer fan-out.
func TestRemoteWalksUpFromQuotedSubject(t *testing.T) {
	now := time.Now()
	w := newQuotedWorld(t, 24, 3, now)
	p := w.prover()
	proof, err := p.FindProof(w.subject(1), w.db, w.tags[1], now)
	if err != nil {
		t.Fatalf("FindProof: %v", err)
	}
	ctx := core.NewVerifyContext()
	ctx.Now = now
	if err := core.Authorize(ctx, proof, w.subject(1), w.db, w.tags[1]); err != nil {
		t.Fatal(err)
	}
	if n := w.src.queryCount(); n > 3 {
		t.Fatalf("asked %d questions, want at most 3: %+v", n, w.src.log())
	}
	if n := w.src.asked("i"); n != 0 {
		t.Fatalf("asked %d by-issuer questions, want none", n)
	}
	if st := p.Stats(); st.RemoteFallbacks != 0 || st.RemoteCerts != 2 {
		t.Fatalf("stats = %+v, want no fallback and the grant and handoff digested", st)
	}
}

// TestRemoteFallsBackToIssuerSide gives the prover a directory that
// answers every by-subject question empty and a chain exactly
// DefaultRemoteRounds hops long: the empty subject-side round must not
// cost the issuer side one of its rounds.
func TestRemoteFallsBackToIssuerSide(t *testing.T) {
	now := time.Now()
	v := core.Until(now.Add(time.Hour))
	tg := tag.Prefix("doc")
	prins, certs := remoteChain(t, "fallback", DefaultRemoteRounds, tg, v)
	src := newFakeSource()
	src.issuerOnly = true
	for _, c := range certs {
		src.add(c)
	}
	p := New()
	p.AddRemote(src)

	subject, issuer := prins[len(prins)-1], prins[0]
	proof, err := p.FindProof(subject, issuer, tg, now)
	if err != nil {
		t.Fatalf("issuer-only chain not found: %v", err)
	}
	ctx := core.NewVerifyContext()
	ctx.Now = now
	if err := core.Authorize(ctx, proof, subject, issuer, tg); err != nil {
		t.Fatal(err)
	}
	if n := src.asked("i"); n != DefaultRemoteRounds {
		t.Fatalf("asked %d by-issuer questions, want one per hop (%d)", n, DefaultRemoteRounds)
	}
	if st := p.Stats(); st.RemoteFallbacks != 1 {
		t.Fatalf("stats = %+v, want one fallback", st)
	}
}

// TestRemoteForgedAnswerDoesNotSteer hands the walk a by-subject answer
// holding a forged delegation from a stranger beside the real one: the
// next round asks about the real issuer only. The forged certificate's
// issuer must never be named in a question, on either axis.
func TestRemoteForgedAnswerDoesNotSteer(t *testing.T) {
	now := time.Now()
	v := core.Until(now.Add(time.Hour))
	tg := tag.All()
	prins, certs := remoteChain(t, "steer", 2, tg, v)
	strangerK := sfkey.FromSeed([]byte("steer-stranger"))
	stranger := principal.KeyOf(strangerK.Public())
	forged, err := cert.Delegate(strangerK, prins[2], stranger, tg, v)
	if err != nil {
		t.Fatal(err)
	}
	forged.Signature[0] ^= 1

	src := newFakeSource()
	src.add(forged)
	for _, c := range certs {
		src.add(c)
	}
	p := New()
	p.AddRemote(src)
	if _, err := p.FindProof(prins[2], prins[0], tg, now); err != nil {
		t.Fatalf("FindProof: %v", err)
	}
	if st := p.Stats(); st.RemoteRejected == 0 {
		t.Fatalf("stats = %+v, forged answer never seen", st)
	}
	for _, c := range src.log() {
		if c.prin == stranger.Key() {
			t.Fatalf("a forged answer steered the walk: asked %s about its issuer", c.axis)
		}
	}
}

// BenchmarkFindRemoteColdQuoted times one cold admit's discovery at
// the prover layer, without the mesh: a fresh gateway-side prover
// (closures and org roots local) proves "K quoting C" for the database
// against an in-memory directory of 24 orgs. questions/op is the
// number of directory questions one discovery asks.
func BenchmarkFindRemoteColdQuoted(b *testing.B) {
	now := time.Now()
	const clients = 64
	w := newQuotedWorld(b, 24, clients, now)
	// One unmeasured pass screens every certificate into the shared
	// verdict cache, so ops differ only in the search.
	for i := 0; i < clients; i++ {
		if _, err := w.prover().FindProof(w.subject(i), w.db, w.tags[i], now); err != nil {
			b.Fatal(err)
		}
	}
	before := w.src.queryCount()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := w.prover()
		b.StartTimer()
		if _, err := p.FindProof(w.subject(i%clients), w.db, w.tags[i%clients], now); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(w.src.queryCount()-before)/float64(b.N), "questions/op")
}
