package server

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/sfkey"
)

func quietRuntime(t *testing.T, name string) *Runtime {
	t.Helper()
	rt := New(name)
	rt.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	t.Cleanup(rt.Shutdown)
	return rt
}

func TestServeAndShutdown(t *testing.T) {
	rt := quietRuntime(t, "test")
	addr, err := rt.Serve("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "alive")
	}))
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	resp, err := http.Get("http://" + addr + "/")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "alive" {
		t.Fatalf("got %q", body)
	}
	var stopped atomic.Bool
	rt.OnShutdown(func() { stopped.Store(true) })
	rt.Shutdown()
	if !stopped.Load() {
		t.Fatal("shutdown hook did not run")
	}
	if _, err := http.Get("http://" + addr + "/"); err == nil {
		t.Fatal("listener still serving after shutdown")
	}
	rt.Shutdown() // idempotent
}

func TestEveryRunsAndStops(t *testing.T) {
	rt := quietRuntime(t, "test")
	var ticks atomic.Int64
	rt.Every(5*time.Millisecond, func() { ticks.Add(1) })
	rt.Every(0, func() { t.Error("disabled job ran") })

	deadline := time.Now().Add(2 * time.Second)
	for ticks.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if ticks.Load() < 3 {
		t.Fatalf("ticker barely ran: %d ticks", ticks.Load())
	}
	rt.Shutdown()
	at := ticks.Load()
	time.Sleep(30 * time.Millisecond)
	if got := ticks.Load(); got != at {
		t.Fatalf("ticker kept running after shutdown: %d -> %d", at, got)
	}
}

func TestAdminMuxServesMetrics(t *testing.T) {
	rt := quietRuntime(t, "test")
	rt.Metrics().Register(func(emit func(Metric)) {
		emit(Counter("sf_test_total", "A test counter.", 7))
	})
	addr, err := rt.ServeAdmin("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeAdmin: %v", err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := string(body)
	for _, want := range []string{"# TYPE sf_test_total counter", "sf_test_total 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}
}

func TestServeAdminEmptyAddrDisabled(t *testing.T) {
	rt := quietRuntime(t, "test")
	addr, err := rt.ServeAdmin("")
	if err != nil || addr != "" {
		t.Fatalf("empty admin addr: got %q, %v", addr, err)
	}
}

// TestWireCRLFile exercises the shared -crl wiring: initial load,
// reload dedup, and reload of a file that grew by one list.
func TestWireCRLFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "revoked.crl")
	priv, err := sfkey.Generate()
	if err != nil {
		t.Fatal(err)
	}
	rl1 := cert.NewRevocationList(priv, core.Forever, []byte("cert-one"))
	if err := os.WriteFile(path, rl1.Sexp().Transport(), 0o644); err != nil {
		t.Fatal(err)
	}

	rt := quietRuntime(t, "test")
	rs := cert.NewRevocationStore()
	var applied atomic.Int64
	install := func(lists []*cert.RevocationList) (added, evicted int, err error) {
		ok, errs := rs.Add(lists...)
		for i := range lists {
			if errs[i] != nil {
				return added, 0, errs[i]
			}
			if ok[i] {
				added++
			}
		}
		applied.Add(int64(added))
		return added, 0, nil
	}
	reload, err := rt.WireCRLFile(path, install)
	if err != nil {
		t.Fatalf("WireCRLFile: %v", err)
	}
	if applied.Load() != 1 {
		t.Fatalf("initial load applied %d lists, want 1", applied.Load())
	}
	if !rs.Has(rl1.Hash()) {
		t.Fatal("initial load did not install the CRL")
	}

	// Reload of an unchanged file: no new lists.
	added, total, _, err := reload()
	if err != nil || added != 0 || total != 1 {
		t.Fatalf("no-op reload: added=%d total=%d err=%v", added, total, err)
	}
	if applied.Load() != 1 {
		t.Fatalf("no-op reload installed again: %d", applied.Load())
	}

	// Extend the file with a second list; reload installs just it.
	rl2 := cert.NewRevocationList(priv, core.Forever, []byte("cert-two"))
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("\n"))
	f.Write(rl2.Sexp().Transport())
	f.Close()
	added, total, _, err = reload()
	if err != nil || added != 1 || total != 2 {
		t.Fatalf("extended reload: added=%d total=%d err=%v", added, total, err)
	}
	if applied.Load() != 2 {
		t.Fatalf("extended reload applied %d total, want 2", applied.Load())
	}

	// A missing file at initial load is a startup error.
	rt2 := quietRuntime(t, "test2")
	if _, err := rt2.WireCRLFile(filepath.Join(dir, "absent.crl"), install); err == nil {
		t.Fatal("absent CRL file did not fail startup")
	}
}

// TestFailShutsDownAndWaitReports: a dead listener (or any fatal
// condition) must kill the daemon, not zombify it — Fail triggers
// shutdown and Wait surfaces the error for a non-zero exit.
func TestFailShutsDownAndWaitReports(t *testing.T) {
	rt := quietRuntime(t, "test")
	addr, err := rt.Serve("127.0.0.1:0", http.NotFoundHandler())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- rt.Wait() }()
	boom := fmt.Errorf("listener died")
	rt.Fail(boom)
	select {
	case err := <-done:
		if err != boom {
			t.Fatalf("Wait returned %v, want the fatal error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not return after Fail")
	}
	if _, err := http.Get("http://" + addr + "/"); err == nil {
		t.Fatal("listener still serving after Fail")
	}
}

// TestShutdownHooksReverseOrder: teardown unwinds setup, so a
// consumer registered after its dependency stops first (replicator
// before WAL).
func TestShutdownHooksReverseOrder(t *testing.T) {
	rt := quietRuntime(t, "test")
	var order []string
	rt.OnShutdown(func() { order = append(order, "wal-close") })
	rt.OnShutdown(func() { order = append(order, "replicator-stop") })
	rt.Shutdown()
	if len(order) != 2 || order[0] != "replicator-stop" || order[1] != "wal-close" {
		t.Fatalf("hooks ran in order %v, want [replicator-stop wal-close]", order)
	}
}

// TestShutdownJoinsTickersBeforeHooks: an in-flight Every tick must
// finish before teardown hooks run, or a sweep could touch the WAL a
// hook just closed.
func TestShutdownJoinsTickersBeforeHooks(t *testing.T) {
	rt := quietRuntime(t, "test")
	var hookRan atomic.Bool
	var violation atomic.Bool
	rt.OnShutdown(func() { hookRan.Store(true) })
	started := make(chan struct{}, 1)
	rt.Every(time.Millisecond, func() {
		select {
		case started <- struct{}{}:
		default:
		}
		time.Sleep(20 * time.Millisecond) // straddle the shutdown
		if hookRan.Load() {
			violation.Store(true)
		}
	})
	<-started
	rt.Shutdown()
	if violation.Load() {
		t.Fatal("shutdown hook ran while a ticker callback was still in flight")
	}
	if !hookRan.Load() {
		t.Fatal("shutdown hook never ran")
	}
}
