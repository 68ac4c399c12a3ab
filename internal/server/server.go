// Package server is the shared daemon runtime behind every sf-*
// command: the scaffolding every daemon needs — listener setup, an
// admin mux, SIGHUP handling, CRL file wiring, periodic sweeps,
// shutdown — implemented once:
//
//   - Serve starts HTTP listeners whose lifecycle the runtime owns;
//     Wait blocks until SIGINT/SIGTERM (or Shutdown) and then drains
//     them gracefully.
//   - OnSIGHUP registers hot-reload hooks (CRL re-reads).
//   - Every schedules background maintenance (store sweeps,
//     Prover.Sweep, WAL syncs) on tickers that stop with the daemon —
//     replacing ad-hoc per-daemon heuristics like the gateway's
//     "sweep every 256 digested proofs".
//   - Metrics is a Prometheus-text mirror of the daemons' counters,
//     served at /metrics on the admin mux (AdminMux/ServeAdmin),
//     with ready-made collectors for the shared proof cache and the
//     prover.
//   - WireCRLFile is the one implementation of "-crl file + SIGHUP
//     reload + admin reload endpoint" for sf-certd and sf-dbserver.
//
// The runtime is mechanism only: it never decides what is authorized.
// Control-plane authorization (who may call the admin endpoints the
// runtime hosts) is httpauth.CtlGuard's job, wired by each daemon.
package server

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/cert"
	"repro/internal/channel"
	"repro/internal/obs"
	"repro/internal/principal"
	"repro/internal/rmi"
)

// Runtime bundles the daemon scaffolding. Construct with New, wire
// listeners and hooks, then Wait. Safe for concurrent use.
type Runtime struct {
	// Name prefixes log lines ("sf-certd").
	Name string
	// Logger, when set, receives runtime log lines as structured slog
	// records with a "daemon" attribute; internal/daemon builds one
	// from each daemon's -log-format flag. Nil means log.Printf.
	Logger *slog.Logger
	// ShutdownTimeout bounds graceful drain per listener; zero means
	// 5 s.
	ShutdownTimeout time.Duration

	mu       sync.Mutex
	servers  []*http.Server
	onHUP    []func()
	onStop   []func()
	admin    *http.ServeMux
	metrics  *Metrics
	tracer   *obs.Recorder
	audit    *obs.AuditLog
	lat      *Latencies
	hupOnce  sync.Once
	stopping context.Context // ends when Shutdown begins (Stopping)
	stop     context.CancelFunc
	done     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	err      error // first fatal error (Fail); reported by Wait
}

// New returns a runtime for the named daemon.
func New(name string) *Runtime {
	stopping, stop := context.WithCancel(context.Background())
	return &Runtime{Name: name, stopping: stopping, stop: stop, done: make(chan struct{})}
}

// Stopping returns a context that ends when Shutdown begins, before the
// listeners drain. A handler that holds a request open (a long poll)
// ends the hold with it, so the drain does not wait the hold out.
func (rt *Runtime) Stopping() context.Context { return rt.stopping }

func (rt *Runtime) logf(format string, args ...any) {
	if rt.Logger != nil {
		rt.Logger.Info(fmt.Sprintf(format, args...), "daemon", rt.Name)
		return
	}
	log.Printf(rt.Name+": "+format, args...)
}

// Printf logs one line under the daemon's name; daemons use it so
// every line carries the same prefix the runtime's own lines do.
func (rt *Runtime) Printf(format string, args ...any) { rt.logf(format, args...) }

// Serve starts an HTTP listener on addr whose lifecycle the runtime
// owns: it is drained gracefully at shutdown. The returned address is
// the bound one (addr may carry port 0 in tests). Serve never blocks.
func (rt *Runtime) Serve(addr string, h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	rt.mu.Lock()
	rt.servers = append(rt.servers, srv)
	rt.mu.Unlock()
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			// A daemon whose listener died must die with it: before the
			// runtime existed this was log.Fatal(http.ListenAndServe(...)),
			// and a supervisor restarted the process. Logging and limping
			// on would leave a zombie serving nothing on its primary port.
			rt.Fail(fmt.Errorf("listener %s: %w", ln.Addr(), err))
		}
	}()
	return ln.Addr().String(), nil
}

// ServeRMI runs an RMI server on a secure-channel listener whose
// lifecycle the runtime owns — the RMI counterpart of Serve. At
// shutdown the listener closes first (no new connections), then the
// server drains: dispatches already executing finish (bounded by
// ShutdownTimeout) before the channels are torn down, so a client
// mid-call sees its reply, not a reset. Replaces the daemons'
// hand-rolled close-the-listener-in-a-hook pattern, which dropped
// in-flight calls.
func (rt *Runtime) ServeRMI(l channel.Listener, srv *rmi.Server) {
	rt.wg.Add(2)
	go func() {
		defer rt.wg.Done()
		<-rt.stopping.Done()
		l.Close()
		timeout := rt.ShutdownTimeout
		if timeout <= 0 {
			timeout = 5 * time.Second
		}
		srv.Drain(timeout)
	}()
	go func() {
		defer rt.wg.Done()
		if err := srv.Serve(l); err != nil {
			select {
			case <-rt.stopping.Done():
				// Listener closed by shutdown; expected.
			default:
				rt.Fail(fmt.Errorf("rmi listener: %w", err))
			}
		}
	}()
}

// Fail records a fatal error and begins shutdown: Wait returns it,
// and daemons exit non-zero. Daemon-owned listeners the runtime does
// not manage (secure-channel RMI) report their serve errors here so a
// dead listener kills the process instead of zombifying it. Safe to
// call from runtime-owned goroutines: the shutdown runs detached.
func (rt *Runtime) Fail(err error) {
	if err == nil {
		return
	}
	rt.mu.Lock()
	if rt.err == nil {
		rt.err = err
	}
	rt.mu.Unlock()
	rt.logf("fatal: %v", err)
	go rt.Shutdown()
}

// Metrics returns the runtime's metric registry (created lazily).
func (rt *Runtime) Metrics() *Metrics {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.metrics == nil {
		rt.metrics = NewMetrics()
	}
	return rt.metrics
}

// Tracer returns the runtime's span recorder (created lazily, with
// its ring-pressure counter registered); daemons hand it to the
// layers they want traced. Spans land at /debug/trace on the admin
// mux.
func (rt *Runtime) Tracer() *obs.Recorder {
	m := rt.Metrics()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.tracer == nil {
		rt.tracer = obs.NewRecorder(0)
		m.Register(TraceCollector(rt.tracer))
	}
	return rt.tracer
}

// Audit returns the runtime's authorization audit log (created
// lazily, with its verdict counters registered); daemons hand it to
// their enforcement points. Decisions land at /debug/decisions on the
// admin mux.
func (rt *Runtime) Audit() *obs.AuditLog {
	m := rt.Metrics()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.audit == nil {
		rt.audit = obs.NewAuditLog(0)
		m.Register(AuditCollector(rt.audit))
	}
	return rt.audit
}

// RegisterObsFlags declares the observability flags every daemon
// exposes the same way — the audit JSONL sink, its size-rotation bound,
// and the trace head-sampling rate — on fs, the daemon's own flag set,
// so several daemons can boot in one process. Once fs is parsed, wire
// applies them: it sets the tracer's sampling rate and, when -audit-log
// is set, opens the (possibly rotating) sink, hooks SIGHUP to reopen it
// (so external logrotate works), and closes it on shutdown.
func RegisterObsFlags(fs *flag.FlagSet) (wire func(*Runtime) error) {
	auditLog := fs.String("audit-log", "", "append authorization decisions as JSONL to this file (empty = ring only)")
	auditLogMax := fs.Int64("audit-log-max", 0, "rotate -audit-log to <path>.1 once it reaches this many bytes (0 = never)")
	traceSample := fs.Int("trace-sample", 1, "record 1 in N freshly started traces; incoming Sf-Trace headers are always honored (1 = record all)")
	return func(rt *Runtime) error {
		rt.Tracer().SetSampleRate(*traceSample)
		if *auditLog == "" {
			return nil
		}
		if err := rt.Audit().OpenSinkRotating(*auditLog, *auditLogMax); err != nil {
			return err
		}
		rt.OnSIGHUP(func() {
			if err := rt.Audit().Reopen(); err != nil {
				rt.logf("SIGHUP audit reopen: %v", err)
				return
			}
			rt.logf("SIGHUP reopened audit log %s", *auditLog)
		})
		rt.OnShutdown(func() { rt.Audit().CloseSink() })
		return nil
	}
}

// Latencies is the standard set of mesh latency histograms every
// daemon exposes; each names the canonical flow it times.
type Latencies struct {
	// ColdAdmit times admits that did new authorization work (a fresh
	// delegation digested or a remote proof discovered).
	ColdAdmit *obs.Histogram
	// WarmAdmit times admits served from cached verdicts and proofs.
	WarmAdmit *obs.Histogram
	// PublishAck times directory publish from receipt to acknowledgment.
	PublishAck *obs.Histogram
	// GossipRound times one anti-entropy replication round.
	GossipRound *obs.Histogram
	// CRLInstall times a CRL install through eviction-complete.
	CRLInstall *obs.Histogram
}

// Latencies returns the standard histogram set (created and
// registered lazily). AdminMux calls it, so every daemon with an
// admin surface exposes the full set even for flows it never
// exercises — a flat histogram is a dashboard's "no traffic", an
// absent one is a wiring bug.
func (rt *Runtime) Latencies() *Latencies {
	m := rt.Metrics()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.lat == nil {
		rt.lat = &Latencies{
			ColdAdmit:   obs.NewHistogram("sf_admit_cold_seconds", "Cold admit latency: authorization including proof digestion or remote discovery."),
			WarmAdmit:   obs.NewHistogram("sf_admit_warm_seconds", "Warm admit latency: authorization served from cached proofs and verdicts."),
			PublishAck:  obs.NewHistogram("sf_publish_ack_seconds", "Directory publish receipt-to-acknowledgment latency."),
			GossipRound: obs.NewHistogram("sf_gossip_round_seconds", "Anti-entropy gossip round latency."),
			CRLInstall:  obs.NewHistogram("sf_crl_install_seconds", "CRL install through eviction-complete latency."),
		}
		for _, h := range []*obs.Histogram{rt.lat.ColdAdmit, rt.lat.WarmAdmit, rt.lat.PublishAck, rt.lat.GossipRound, rt.lat.CRLInstall} {
			m.RegisterHistogram(h)
		}
	}
	return rt.lat
}

// AdminMux returns the admin mux (created lazily) with the
// observability surface already wired: /metrics (including the
// standard latency histograms), /debug/trace, /debug/decisions, and
// the /debug/pprof handlers. Daemons hang their own admin endpoints
// off it — guarded by httpauth.CtlGuard where they mutate — and
// expose it with ServeAdmin or inside their main handler.
func (rt *Runtime) AdminMux() *http.ServeMux {
	m := rt.Metrics() // ensure registry exists before first scrape
	tr := rt.Tracer()
	au := rt.Audit()
	rt.Latencies()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.admin == nil {
		rt.admin = http.NewServeMux()
		rt.admin.Handle("/metrics", m)
		rt.admin.Handle("/debug/trace", tr)
		rt.admin.Handle("/debug/decisions", au)
		rt.admin.HandleFunc("/debug/pprof/", pprof.Index)
		rt.admin.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		rt.admin.HandleFunc("/debug/pprof/profile", pprof.Profile)
		rt.admin.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		rt.admin.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return rt.admin
}

// ServeAdmin starts the admin mux on its own listener; empty addr is
// a no-op (admin surface disabled) returning "".
func (rt *Runtime) ServeAdmin(addr string) (string, error) {
	if addr == "" {
		return "", nil
	}
	bound, err := rt.Serve(addr, rt.AdminMux())
	if err != nil {
		return "", err
	}
	rt.logf("admin listening on %s", bound)
	return bound, nil
}

// Every runs fn every interval until shutdown; a non-positive
// interval disables the job. Long-lived servers schedule their
// Prover.Sweep, store sweeps, and WAL syncs here instead of each
// daemon growing its own goroutine-and-ticker (or worse, a
// per-N-requests heuristic that idles exactly when cleanup matters).
func (rt *Runtime) Every(interval time.Duration, fn func()) {
	if interval <= 0 {
		return
	}
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-rt.stopping.Done():
				return
			case <-t.C:
				fn()
			}
		}
	}()
}

// OnSIGHUP registers a hot-reload hook; the first registration starts
// the signal listener. Hooks run sequentially per signal.
func (rt *Runtime) OnSIGHUP(fn func()) {
	rt.mu.Lock()
	rt.onHUP = append(rt.onHUP, fn)
	rt.mu.Unlock()
	rt.hupOnce.Do(func() {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, syscall.SIGHUP)
		rt.wg.Add(1)
		go func() {
			defer rt.wg.Done()
			for {
				select {
				case <-rt.stopping.Done():
					signal.Stop(ch)
					return
				case <-ch:
					rt.mu.Lock()
					hooks := append([]func(){}, rt.onHUP...)
					rt.mu.Unlock()
					for _, h := range hooks {
						h()
					}
				}
			}
		}()
	})
}

// OnShutdown registers a hook run during Shutdown, after the
// listeners have drained. Hooks run in REVERSE registration order —
// defer semantics — so teardown unwinds setup: a replicator
// registered after the WAL it feeds stops before the WAL closes.
func (rt *Runtime) OnShutdown(fn func()) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.onStop = append(rt.onStop, fn)
}

// Wait blocks until SIGINT/SIGTERM arrives (or Shutdown is called),
// then drains and returns the fatal error, if any (nil on a clean
// signal-driven exit). Daemons end main with it and log.Fatal a
// non-nil result so supervisors see a non-zero exit.
func (rt *Runtime) Wait() error {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-ch:
		rt.logf("received %s, shutting down", s)
	case <-rt.stopping.Done():
	}
	signal.Stop(ch)
	rt.Shutdown()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.err
}

// Shutdown drains every listener gracefully (bounded by
// ShutdownTimeout each), stops and JOINS the tickers and signal
// handlers, and only then runs the shutdown hooks — so a sweep tick
// in flight can never touch state a hook is about to tear down (the
// WAL a hook closes, the replicator a hook stops). Idempotent; tests
// drive the runtime through it directly.
func (rt *Runtime) Shutdown() {
	rt.stopOnce.Do(func() {
		rt.stop()
		timeout := rt.ShutdownTimeout
		if timeout <= 0 {
			timeout = 5 * time.Second
		}
		rt.mu.Lock()
		servers := append([]*http.Server(nil), rt.servers...)
		hooks := append([]func(){}, rt.onStop...)
		rt.mu.Unlock()
		for _, srv := range servers {
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			if err := srv.Shutdown(ctx); err != nil {
				srv.Close()
			}
			cancel()
		}
		rt.wg.Wait()
		for i := len(hooks) - 1; i >= 0; i-- {
			hooks[i]()
		}
		close(rt.done)
	})
	<-rt.done
}

// LoadPrincipalFile reads a principal S-expression from a file — the
// one implementation of every daemon's -operator flag.
func LoadPrincipalFile(path string) (principal.Principal, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p, err := principal.Parse(string(raw))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// WireCRLFile is the one implementation of a daemon's -crl flag: it
// reads path and hands its lists to install now (returning the error —
// daemons fail startup on a bad file), registers a SIGHUP hook that
// re-reads it, and returns the same reload function for admin
// endpoints. install verifies and installs the lists and reports how
// many were NEW and how many stored certificates they evicted; both
// daemons pass certdir.InstallCRLs bound to their own state (sf-certd
// with its store and replicator, a pure verifier with neither).
// Installation deduplicates, so re-reading an unchanged file installs
// nothing and flushes no proof cache. When a list fails verification
// the lists that do verify ARE installed and applied, so their
// revocations take effect rather than waiting for a fixed file.
func (rt *Runtime) WireCRLFile(path string, install func(lists []*cert.RevocationList) (added, evicted int, err error)) (reload func() (added, total, evicted int, err error), err error) {
	crlHist := rt.Latencies().CRLInstall
	reload = func() (int, int, int, error) {
		start := time.Now()
		lists, err := cert.LoadCRLFile(path)
		if err != nil {
			return 0, 0, 0, err
		}
		added, evicted, err := install(lists)
		if err != nil {
			err = fmt.Errorf("%s: %w", path, err)
		}
		// Only rounds that installed something are CRL installs; a
		// no-op re-read is not a revocation latency sample.
		if added > 0 {
			crlHist.Since(start)
		}
		return added, len(lists), evicted, err
	}
	_, initial, _, err := reload()
	if err != nil {
		return nil, err
	}
	rt.logf("loaded %d revocation lists from %s", initial, path)
	rt.OnSIGHUP(func() {
		added, total, evicted, err := reload()
		if err != nil {
			rt.logf("SIGHUP crl reload: %v", err)
			return
		}
		rt.logf("SIGHUP reloaded %s: %d new of %d lists, %d certs evicted",
			path, added, total, evicted)
	})
	return reload, nil
}
