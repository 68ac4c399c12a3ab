// Package daemon assembles the five sf-* daemons (sf-certd,
// sf-dbserver, sf-gateway, sf-proxy, sf-webfs). Each has one entry
// point that takes its argument list, parses it on its own flag set,
// refuses a bad flag combination before it opens any file, log,
// listener or connection, and returns a running Node. The cmd/sf-*
// mains are glue around these entry points, and tests boot the same
// functions.
//
// The prologue every daemon shares is written once here: the
// -log-format logger, the observability flags, the shared proof-cache
// collector, the main and admin listeners, and Main, which waits.
package daemon

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"

	"repro/internal/core"
	"repro/internal/server"
)

// Node is a booted daemon whose listeners are bound and serving.
type Node struct {
	// Addr is the bound address of the daemon's main listener.
	Addr string
	// AdminAddr is the bound admin listener; empty without -admin-addr.
	AdminAddr string

	rt *server.Runtime
}

// Shutdown drains the listeners and runs the shutdown hooks (the WAL
// closes, the replicator and CRL followers stop). Idempotent.
func (n *Node) Shutdown() { n.rt.Shutdown() }

// Main is a daemon command's main: boot start from the command line,
// log.Fatal on an error, then serve until SIGINT/SIGTERM, and exit
// non-zero if a fault stopped the daemon. A one-shot mode, which
// returns no Node, is done once start returns.
func Main(start func(args []string) (*Node, error)) {
	n, err := start(os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	if n != nil {
		if err := n.rt.Wait(); err != nil {
			log.Fatalf("%s: %v", n.rt.Name, err)
		}
	}
}

// boot is one daemon's boot in progress: its flag set with the flags
// every daemon shares, then, once started, its runtime.
type boot struct {
	fs        *flag.FlagSet
	logFormat *string
	wireObs   func(*server.Runtime) error // nil for sf-proxy, which has no audit or trace flags
	rt        *server.Runtime
}

// newBoot starts the named daemon's boot and returns its flag set.
// Like flag.CommandLine, the flag set exits the process on an argument
// list it cannot parse (status 2, or 0 for -h).
func newBoot(name string, obs bool) (*boot, *flag.FlagSet) {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	b := &boot{fs: fs, logFormat: fs.String("log-format", "text", "log output format: text or json")}
	if obs {
		b.wireObs = server.RegisterObsFlags(fs)
	}
	return b, fs
}

// finish ends an entry point's boot; each defers it. A failed boot
// shuts down whatever it had started, and its error names the daemon.
func (b *boot) finish(err *error) {
	if *err != nil {
		if b.rt != nil {
			b.rt.Shutdown()
		}
		*err = fmt.Errorf("%s: %w", b.fs.Name(), *err)
	}
}

// start builds the runtime: the -log-format logger (text or JSON lines
// on standard error), the observability flags, and the shared
// proof-cache collector every daemon exports. A daemon calls it once
// its flag checks have passed: the audit log is the first file it
// opens.
func (b *boot) start() (*server.Runtime, error) {
	rt := server.New(b.fs.Name())
	switch *b.logFormat {
	case "", "text":
		rt.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "json":
		rt.Logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	default:
		return nil, fmt.Errorf("-log-format: unknown log format %q (want text or json)", *b.logFormat)
	}
	b.rt = rt
	if b.wireObs != nil {
		if err := b.wireObs(b.rt); err != nil {
			return nil, fmt.Errorf("audit log: %w", err)
		}
	}
	b.rt.Metrics().Register(server.ProofCacheCollector(core.SharedProofCache()))
	return b.rt, nil
}

// serve starts the daemon's HTTP listener, then its admin listener.
func (b *boot) serve(addr string, h http.Handler, adminAddr string) (*Node, error) {
	bound, err := b.rt.Serve(addr, h)
	if err != nil {
		return nil, err
	}
	return b.node(bound, adminAddr)
}

// node starts the admin listener of a daemon whose main listener is
// bound at addr.
func (b *boot) node(addr, adminAddr string) (*Node, error) {
	admin, err := b.rt.ServeAdmin(adminAddr)
	if err != nil {
		return nil, err
	}
	return &Node{Addr: addr, AdminAddr: admin, rt: b.rt}, nil
}
