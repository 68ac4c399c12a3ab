package rmi

import (
	"testing"

	"repro/internal/cert"
	"repro/internal/channel/local"
	"repro/internal/core"
	"repro/internal/principal"
	"repro/internal/prover"
	"repro/internal/sfkey"
)

// BenchmarkRMIQuotingCall times the gateway's warm call: a protected
// method invoked quoting a client, over an in-process channel, with
// the proof already on file at the server. What remains per call is
// the wire encoding, the checkAuth lookup and dispatch.
func BenchmarkRMIQuotingCall(b *testing.B) {
	serverKey := sfkey.FromSeed([]byte("bench-db-server"))
	gatewayKey := sfkey.FromSeed([]byte("bench-gateway"))
	clientKey := sfkey.FromSeed([]byte("bench-client"))
	sIss := principal.KeyOf(serverKey.Public())
	cP := principal.KeyOf(clientKey.Public())

	srv := NewServer()
	if err := srv.Register("echo", &EchoService{}, sIss, nil); err != nil {
		b.Fatal(err)
	}
	host := local.NewHost()
	l, err := host.Listen("db", serverKey.Public())
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	go srv.Serve(l)

	// The channel key is the gateway's own, so the chain the client
	// handed over (gateway|client => client => server) is the proof.
	sToC, err := cert.Delegate(serverKey, cP, sIss, ObjectTag("echo"), core.Forever)
	if err != nil {
		b.Fatal(err)
	}
	cGrant, err := cert.Delegate(clientKey, principal.QuoteOf(principal.KeyOf(gatewayKey.Public()), cP), cP, ObjectTag("echo"), core.Forever)
	if err != nil {
		b.Fatal(err)
	}
	chain, err := core.NewTransitivity(cGrant, sToC)
	if err != nil {
		b.Fatal(err)
	}
	pv := prover.New()
	pv.AddProof(chain)
	c, err := Dial(local.Dialer{Host: host, Key: gatewayKey.Public()}, "db", pv)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	args := EchoArgs{Msg: "warm"}
	var reply EchoReply
	if err := c.CallQuoting(cP, "echo", "Echo", args, &reply); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.CallQuoting(cP, "echo", "Echo", args, &reply); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := c.Stats(); st.Challenges != 1 {
		b.Fatalf("challenges = %d, want 1 (only the set-up call)", st.Challenges)
	}
}
