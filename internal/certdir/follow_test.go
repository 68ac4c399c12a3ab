package certdir

import (
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/sfkey"
)

// A follower pulls exactly the CRLs its store lacks, installing them
// bumps the shared proof-cache epoch (that is the whole point — a
// following verifier's cached verdicts die), and tampered lists are
// refused.
func TestCRLFollowerPull(t *testing.T) {
	now := time.Now()
	v := core.Between(now.Add(-time.Minute), now.Add(time.Hour))
	issuer := sfkey.FromSeed([]byte("follow-issuer"))

	st := NewStore(4)
	svc := NewService(st)
	svc.Revocations = cert.NewRevocationStore()
	ts := httptest.NewServer(svc)
	defer ts.Close()
	cl := NewClient(ts.URL)

	rs := cert.NewRevocationStore()
	f := NewCRLFollower(cl, rs)

	if added, err := f.Pull(); err != nil || added != 0 {
		t.Fatalf("empty pull: added=%d err=%v", added, err)
	}

	rl1 := cert.NewRevocationList(issuer, v, []byte("h1"))
	if err := cl.PushCRL(rl1); err != nil {
		t.Fatal(err)
	}
	epoch := core.SharedProofCache().Epoch()
	if added, err := f.Pull(); err != nil || added != 1 {
		t.Fatalf("first pull: added=%d err=%v", added, err)
	}
	if !rs.Has(rl1.Hash()) {
		t.Fatal("follower store missing pulled CRL")
	}
	if got := core.SharedProofCache().Epoch(); got <= epoch {
		t.Fatalf("install did not bump shared epoch: %d -> %d", epoch, got)
	}

	// A second round with nothing new is incremental: the peer is told
	// what we have and ships nothing.
	if added, err := f.Pull(); err != nil || added != 0 {
		t.Fatalf("idle pull: added=%d err=%v", added, err)
	}

	rl2 := cert.NewRevocationList(issuer, v, []byte("h2"))
	if err := cl.PushCRL(rl2); err != nil {
		t.Fatal(err)
	}
	if added, err := f.Pull(); err != nil || added != 1 {
		t.Fatalf("second pull: added=%d err=%v", added, err)
	}
	if s := f.Stats(); s.Pulled != 2 || s.Rejected != 0 || s.Rounds != 4 {
		t.Fatalf("stats = %+v", s)
	}
}

// A direct Pull against a dead directory reports to OnError: callers
// that drive Pull from their own ticker (sf-dbserver's -crl-follow)
// rely on it to log the failure.
func TestCRLFollowerPullReportsError(t *testing.T) {
	ts := httptest.NewServer(NewService(NewStore(4)))
	url := ts.URL
	ts.Close()

	f := NewCRLFollower(NewClient(url), cert.NewRevocationStore())
	var seen []error
	f.OnError = func(err error) { seen = append(seen, err) }
	_, err := f.Pull()
	if err == nil {
		t.Fatal("pull from a closed listener succeeded")
	}
	if len(seen) != 1 || seen[0] != err {
		t.Fatalf("OnError saw %v, want exactly the pull's error %v", seen, err)
	}
}

// The Start/Stop loop pulls on its own and survives a directory that
// briefly errors.
func TestCRLFollowerLoop(t *testing.T) {
	now := time.Now()
	v := core.Between(now.Add(-time.Minute), now.Add(time.Hour))
	issuer := sfkey.FromSeed([]byte("follow-loop-issuer"))

	st := NewStore(4)
	svc := NewService(st)
	svc.Revocations = cert.NewRevocationStore()
	ts := httptest.NewServer(svc)
	defer ts.Close()

	rs := cert.NewRevocationStore()
	f := NewCRLFollower(NewClient(ts.URL), rs)
	f.Interval = 20 * time.Millisecond
	f.Start()
	defer f.Stop()

	rl := cert.NewRevocationList(issuer, v, []byte("h"))
	if err := NewClient(ts.URL).PushCRL(rl); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !rs.Has(rl.Hash()) {
		if time.Now().After(deadline) {
			t.Fatal("follower never pulled the CRL")
		}
		time.Sleep(5 * time.Millisecond)
	}
	f.Stop() // idempotent with the deferred Stop
}
