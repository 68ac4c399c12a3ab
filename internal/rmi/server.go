package rmi

import (
	"bufio"
	"context"
	"encoding/gob"
	"fmt"
	"reflect"
	"sync"
	"time"

	"repro/internal/admit"
	"repro/internal/channel"
	"repro/internal/obs"
	"repro/internal/principal"
	"repro/internal/sfkey"
	"repro/internal/tag"
)

// TagFunc maps a method invocation (with its decoded arguments) to
// the restriction set required to authorize it — the server
// programmer's "mapping from method invocation to restriction set
// (T)" of section 5.1.1.
type TagFunc func(object, method string, args interface{}) tag.Tag

// DefaultTagFunc requires (rmi (object X) (method M)).
func DefaultTagFunc(object, method string, args interface{}) tag.Tag {
	return MethodTag(object, method)
}

// object is a registered remote object.
type object struct {
	name   string
	issuer principal.Principal // KS: the principal controlling the object
	tagFor TagFunc
	recv   reflect.Value
	method map[string]reflect.Method
	open   bool // unprotected: no checkAuth prologue
}

// Stats counts server-side authorization work, reported by the
// measurement harness.
type Stats struct {
	Calls         int
	AuthChecks    int
	AuthFailures  int
	ProofSubmits  int
	ProofVerifies int
}

// Server dispatches invocations arriving over authenticated channels.
// It is the RMI transport adapter over the admission pipeline: the
// embedded Pipeline carries the cache, clock, revocation store and
// audit log, keeps the verified proofs on file (the "cache/proof" box
// of Figure 4), and runs the checkAuth prologue.
type Server struct {
	*admit.Pipeline
	// Obs records one span per dispatched call, continuing the trace
	// named by the request's Trace field; nil disables tracing.
	Obs *obs.Recorder

	mu      sync.Mutex
	objects map[string]*object
	stats   Stats

	// conns tracks live connections and inflight the dispatches on
	// them, so Drain can stop accepting work, wait for calls already
	// executing, and only then tear channels down.
	conns    map[channel.Conn]struct{}
	inflight sync.WaitGroup
	draining bool
}

// NewServer returns an empty server.
func NewServer() *Server {
	return &Server{Pipeline: admit.New("rmi"), objects: make(map[string]*object)}
}

// Register installs a protected remote object. Methods must have the
// net/rpc shape: func (t *T) M(args A, reply *R) error. Every call is
// prefixed by checkAuth against the issuer and tagFor (nil tagFor
// uses DefaultTagFunc).
func (s *Server) Register(name string, impl interface{}, issuer principal.Principal, tagFor TagFunc) error {
	return s.register(name, impl, issuer, tagFor, false)
}

// RegisterOpen installs an unprotected object (the "basic RMI"
// baseline of Figure 6).
func (s *Server) RegisterOpen(name string, impl interface{}) error {
	return s.register(name, impl, nil, nil, true)
}

func (s *Server) register(name string, impl interface{}, issuer principal.Principal, tagFor TagFunc, open bool) error {
	if !open && issuer == nil {
		return fmt.Errorf("rmi: protected object %q needs an issuer", name)
	}
	if tagFor == nil {
		tagFor = DefaultTagFunc
	}
	recv := reflect.ValueOf(impl)
	t := recv.Type()
	methods := make(map[string]reflect.Method)
	for i := 0; i < t.NumMethod(); i++ {
		m := t.Method(i)
		if !suitableMethod(m) {
			continue
		}
		methods[m.Name] = m
	}
	if len(methods) == 0 {
		return fmt.Errorf("rmi: %q exports no suitable methods", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.objects[name]; dup {
		return fmt.Errorf("rmi: object %q already registered", name)
	}
	s.objects[name] = &object{
		name: name, issuer: issuer, tagFor: tagFor,
		recv: recv, method: methods, open: open,
	}
	return nil
}

// suitableMethod checks the net/rpc shape: two args (value, pointer),
// one error return.
func suitableMethod(m reflect.Method) bool {
	mt := m.Type
	if mt.NumIn() != 3 || mt.NumOut() != 1 {
		return false
	}
	if mt.In(2).Kind() != reflect.Ptr {
		return false
	}
	return mt.Out(0) == reflect.TypeOf((*error)(nil)).Elem()
}

// Serve accepts connections until the listener fails.
func (s *Server) Serve(l channel.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go s.ServeConn(conn)
	}
}

// ServeConn dispatches one connection; it returns when the peer
// disconnects. Each direction is one gob stream for the connection's
// life: a call's header is followed by its argument value, and an ok
// reply's header by its result value. An argument that does not decode
// or a result that does not encode closes the connection, because the
// stream cannot resynchronize. Each reply is flushed as one record.
func (s *Server) ServeConn(conn channel.Conn) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		conn.Close()
		return
	}
	if s.conns == nil {
		s.conns = make(map[channel.Conn]struct{})
	}
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	dec := gob.NewDecoder(conn)
	bw := bufio.NewWriter(conn)
	enc := gob.NewEncoder(bw)
	for {
		var req callRequest
		if err := dec.Decode(&req); err != nil {
			return
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			return
		}
		s.inflight.Add(1)
		s.mu.Unlock()
		// The call stays in flight until its reply is on the wire, so
		// Drain cannot close the connection between dispatch and reply.
		resp, result, err := s.dispatch(conn, dec, &req)
		if err == nil {
			err = enc.Encode(resp)
		}
		if err == nil && resp.Kind == kindOK {
			err = enc.EncodeValue(result)
		}
		if err == nil {
			err = bw.Flush()
		}
		s.inflight.Done()
		if err != nil {
			return
		}
	}
}

// Drain stops dispatching new calls, waits up to timeout (forever
// when timeout <= 0) for in-flight dispatches to finish, and then
// closes every live connection so ServeConn loops unwind. Daemons
// reach it through server.Runtime.ServeRMI; direct callers pair it
// with closing their listener.
func (s *Server) Drain(timeout time.Duration) {
	s.mu.Lock()
	s.draining = true
	conns := make([]channel.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	if timeout > 0 {
		select {
		case <-done:
		case <-time.After(timeout):
		}
	} else {
		<-done
	}
	for _, c := range conns {
		c.Close()
	}
}

// speakerFor derives the principal that uttered a request: the
// channel's peer key ("checkAuth discovers the key K2 associated with
// the channel"), wrapped as a quoting principal when the caller
// claims to quote (section 6.3).
func speakerFor(conn channel.Conn, req *callRequest) (principal.Principal, error) {
	peer := conn.PeerKey()
	var base principal.Principal
	if len(peer.Raw) == 0 {
		// Unauthenticated channel: only the channel itself speaks.
		base = conn.Principal()
	} else {
		base = principal.KeyOf(peer)
	}
	if len(req.Quotee) == 0 {
		return base, nil
	}
	qe, err := principal.Parse(string(req.Quotee))
	if err != nil {
		return nil, fmt.Errorf("rmi: bad quotee: %w", err)
	}
	return principal.QuoteOf(base, qe), nil
}

// dispatch reads the argument value that follows req on dec, runs the
// call, and returns the reply header and, for kindOK, the result value
// to send after it. An error means the argument did not decode and the
// connection must close.
func (s *Server) dispatch(conn channel.Conn, dec *gob.Decoder, req *callRequest) (*callResponse, reflect.Value, error) {
	s.mu.Lock()
	s.stats.Calls++
	obj, ok := s.objects[req.Object]
	s.mu.Unlock()
	resp := &callResponse{ID: req.ID}

	var span *obs.ActiveSpan
	if s.Obs != nil {
		_, span = s.Obs.StartFromHeader(context.Background(), req.Trace, "rmi."+req.Object+"."+req.Method)
		defer span.End()
	}

	if req.Object == proofRecipientObject {
		return s.handleProofSubmit(dec, resp)
	}
	var m reflect.Method
	if !ok {
		resp.Err = fmt.Sprintf("rmi: no object %q", req.Object)
	} else if m, ok = obj.method[req.Method]; !ok {
		resp.Err = fmt.Sprintf("rmi: %q has no method %q", req.Object, req.Method)
	}
	if !ok {
		// The argument value follows the header whatever it names;
		// discard it to keep the stream in step.
		if err := dec.DecodeValue(reflect.Value{}); err != nil {
			return nil, reflect.Value{}, fmt.Errorf("rmi: discard args: %w", err)
		}
		resp.Kind = kindError
		return resp, reflect.Value{}, nil
	}

	argv := reflect.New(m.Type.In(1))
	if err := dec.DecodeValue(argv); err != nil {
		return nil, reflect.Value{}, fmt.Errorf("rmi: decode args: %w", err)
	}

	// The checkAuth() prologue (Figure 4, step l): a filed, already
	// verified proof must show the speaker speaks for the object's
	// issuer regarding this invocation's tag.
	if !obj.open {
		speaker, err := speakerFor(conn, req)
		if err != nil {
			resp.Kind = kindError
			resp.Err = err.Error()
			return resp, reflect.Value{}, nil
		}
		reqTag := obj.tagFor(req.Object, req.Method, argv.Elem().Interface())
		trace, _, _ := obs.ParseHeader(req.Trace)
		attempt := s.Begin(req.Object+"."+req.Method, trace)
		attempt.For(speaker, reqTag)
		cite, ok := s.AuthorizeOnFile(speaker, obj.issuer, reqTag)
		s.mu.Lock()
		s.stats.AuthChecks++
		if !ok {
			s.stats.AuthFailures++
		}
		s.mu.Unlock()
		if !ok {
			span.SetAttr("verdict", "challenge")
			attempt.Challenge("no valid proof on file")
			resp.Kind = kindNeedAuth
			resp.Issuer, resp.MinTag = encodeChallenge(obj.issuer, reqTag)
			return resp, reflect.Value{}, nil
		}
		span.SetAttr("verdict", "admit")
		attempt.CiteFiled(cite)
		attempt.Admit(false)
	}

	// Invoke.
	replyv := reflect.New(m.Type.In(2).Elem())
	out := m.Func.Call([]reflect.Value{obj.recv, argv.Elem(), replyv})
	if errv := out[0].Interface(); errv != nil {
		resp.Kind = kindError
		resp.Err = errv.(error).Error()
		return resp, reflect.Value{}, nil
	}
	resp.Kind = kindOK
	return resp, replyv, nil
}

// handleProofSubmit is the proofRecipient (Figure 4, step n): read the
// submitted proof from dec, parse, verify once, and file it under its
// subject.
func (s *Server) handleProofSubmit(dec *gob.Decoder, resp *callResponse) (*callResponse, reflect.Value, error) {
	var args submitArgs
	if err := dec.Decode(&args); err != nil {
		return nil, reflect.Value{}, fmt.Errorf("rmi: decode proof submit: %w", err)
	}
	if err := s.AcceptProof(args.Proof); err != nil {
		resp.Kind = kindError
		resp.Err = err.Error()
		return resp, reflect.Value{}, nil
	}
	resp.Kind = kindOK
	return resp, reflect.ValueOf(submitReply{Stored: true}), nil
}

// AcceptProof parses, verifies, and files a transport-encoded proof;
// exported so colocated gateways and tests can install proofs
// directly.
func (s *Server) AcceptProof(raw []byte) error {
	s.mu.Lock()
	s.stats.ProofSubmits++
	s.stats.ProofVerifies++
	s.mu.Unlock()
	if err := s.Submit(raw); err != nil {
		return fmt.Errorf("rmi: proof rejected: %w", err)
	}
	return nil
}

// Stats returns a copy of the counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// zeroKey reports whether a public key is absent.
func zeroKey(k sfkey.PublicKey) bool { return len(k.Raw) == 0 }
