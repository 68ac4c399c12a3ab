package main

import (
	"context"
	"net/http"
	"sync"
	"time"

	"repro/internal/certdir"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/principal"
	"repro/internal/tag"
)

// tracer is the measuring apparatus of a traced run. The layers are
// measured from outside: the benchmark decorates the interfaces the
// mesh is assembled from (prover.RemoteSource, http.Handler,
// channel.Dialer) and switches on the Obs recorders the program
// already has. A world is built either with a tracer or without one,
// so the untraced world carries no decorator at all.
type tracer struct {
	// client holds the spans the benchmark opens around its own calls;
	// prog holds the spans the program opens. prog records only traces
	// that continue a client span (its own fresh traces are sampled
	// out), so every recorded tree has a client root.
	client *obs.Recorder
	prog   *obs.Recorder

	query    durSink // prover.RemoteSource calls (one directory query each)
	dirServe durSink // certdir.Service.ServeHTTP
	gwServe  durSink // gateway.Gateway.ServeHTTP
	rmiCall  durSink // one RMI request/reply exchange on the channel
}

// progSpanRing bounds the program-side span ring; sampleEvery keeps a
// traced region inside it (see admitWorkload.traceEvery).
const progSpanRing = 1 << 18

func newTracer() *tracer {
	t := &tracer{
		client: obs.NewRecorder(progSpanRing / 4),
		prog:   obs.NewRecorder(progSpanRing),
	}
	// Head-sample the program's own fresh traces (gossip, CRL pulls,
	// untraced admits) down to nothing; traces continuing an Sf-Trace
	// header are always recorded.
	t.prog.SetSampleRate(1 << 40)
	return t
}

// progRecorder is what the mesh hangs on the program's Obs fields:
// nil in an untraced world.
func (t *tracer) progRecorder() *obs.Recorder {
	if t == nil {
		return nil
	}
	return t.prog
}

// reset drops the raw timings collected so far (set-up traffic runs
// through the decorators too).
func (t *tracer) reset() {
	for _, s := range []*durSink{&t.query, &t.dirServe, &t.gwServe, &t.rmiCall} {
		s.mu.Lock()
		s.us = nil
		s.mu.Unlock()
	}
}

// spans returns every recorded span of both recorders.
func (t *tracer) spans() []obs.Span {
	return append(t.client.Spans(), t.prog.Spans()...)
}

// durSink collects raw durations in microseconds — never histogram
// buckets, so percentiles over them are exact order statistics.
type durSink struct {
	mu sync.Mutex
	us []float64
}

func (s *durSink) add(d time.Duration) {
	s.mu.Lock()
	s.us = append(s.us, float64(d)/float64(time.Microsecond))
	s.mu.Unlock()
}

func (s *durSink) median() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return median(s.us)
}

// timedSource decorates a directory client as the prover sees it.
// The prover prefers ContextSource, so in practice only the two Ctx
// methods run; the others complete the interfaces certdir.Client
// offers so the decorator never narrows what the prover can ask.
type timedSource struct {
	inner *certdir.Client
	tr    *tracer
}

func (s timedSource) timed(ctx context.Context, f func(context.Context) ([]core.Proof, error)) ([]core.Proof, error) {
	ctx, span := obs.StartSpan(ctx, "prover.remote_source")
	start := time.Now()
	got, err := f(ctx)
	s.tr.query.add(time.Since(start))
	span.Fail(err)
	span.End()
	return got, err
}

func (s timedSource) ByIssuer(p principal.Principal) ([]core.Proof, error) {
	return s.timed(context.Background(), func(context.Context) ([]core.Proof, error) { return s.inner.ByIssuer(p) })
}

func (s timedSource) BySubject(p principal.Principal) ([]core.Proof, error) {
	return s.timed(context.Background(), func(context.Context) ([]core.Proof, error) { return s.inner.BySubject(p) })
}

func (s timedSource) ByIssuerFor(p principal.Principal, want tag.Tag, limit int) ([]core.Proof, error) {
	return s.ByIssuerForCtx(context.Background(), p, want, limit)
}

func (s timedSource) BySubjectFor(p principal.Principal, want tag.Tag, limit int) ([]core.Proof, error) {
	return s.BySubjectForCtx(context.Background(), p, want, limit)
}

func (s timedSource) ByIssuerForCtx(ctx context.Context, p principal.Principal, want tag.Tag, limit int) ([]core.Proof, error) {
	return s.timed(ctx, func(ctx context.Context) ([]core.Proof, error) {
		return s.inner.ByIssuerForCtx(ctx, p, want, limit)
	})
}

func (s timedSource) BySubjectForCtx(ctx context.Context, p principal.Principal, want tag.Tag, limit int) ([]core.Proof, error) {
	return s.timed(ctx, func(ctx context.Context) ([]core.Proof, error) {
		return s.inner.BySubjectForCtx(ctx, p, want, limit)
	})
}

// timedHandler times a whole ServeHTTP from outside.
func timedHandler(next http.Handler, sink *durSink) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		sink.add(time.Since(start))
	})
}

// timedDialer decorates the channel an rmi.Client talks over.
type timedDialer struct {
	inner channel.Dialer
	tr    *tracer
}

func (d timedDialer) Dial(addr string) (channel.Conn, error) {
	c, err := d.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &timedConn{Conn: c, tr: d.tr}, nil
}

// timedConn times request/reply exchanges on a strictly alternating
// channel: an exchange runs from the first Write after a reply to the
// last Read before the next Write. rmi.Client holds its mutex across
// the whole exchange, so Read and Write never run concurrently and
// the state needs no lock.
type timedConn struct {
	channel.Conn
	tr       *tracer
	reqStart time.Time // zero: idle
	lastRead time.Time // zero: no reply byte seen for the open request
}

func (c *timedConn) Write(p []byte) (int, error) {
	switch {
	case c.reqStart.IsZero():
		c.reqStart, c.lastRead = time.Now(), time.Time{}
	case !c.lastRead.IsZero():
		c.tr.rmiCall.add(c.lastRead.Sub(c.reqStart))
		c.reqStart, c.lastRead = time.Now(), time.Time{}
	}
	return c.Conn.Write(p)
}

func (c *timedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && !c.reqStart.IsZero() {
		c.lastRead = time.Now()
	}
	return n, err
}
