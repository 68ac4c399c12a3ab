package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// A workload is one scenario of the benchmark. One process runs one
// workload: set-up (repeated, so setup_s is a median), then timed
// regions on the last world built, then the checks that need the
// load to have stopped.
type workload interface {
	// setUp builds the world from scratch, discarding any earlier one.
	setUp() error
	// region drives the load for dur (less if the inputs run out) and
	// returns what the clients observed.
	region(dur time.Duration) (*region, error)
	// finish runs the end-of-run correctness checks and returns the
	// operations they attempted and failed.
	finish() (attempted, failed int64, failures []string)
	// layers reports the per-layer counters accumulated while traced
	// and the inputs the direct-call layer replay runs on.
	layers() (map[string]float64, *replayInputs, error)
	close()
}

// mark is one slice boundary of a timed region.
type mark struct {
	t     time.Duration // since region start
	ops   int64         // operations completed correctly so far
	cpu   time.Duration // process user+system CPU so far
	alloc uint64        // bytes allocated so far
}

// sample is one client-observed operation.
type sample struct {
	at time.Duration // start, since region start
	us float64       // duration in microseconds
}

// region is what one timed region produced. Following section 7.1 of
// the paper, the region is cut into slices, the first is discarded as
// warm-up, and rates are medians over the remaining slices.
type region struct {
	marks     []mark
	lat       []sample
	attempted int64
	failed    int64
	failures  []string
	info      map[string]float64 // informational, never gated
}

// sliceRates returns operations per second of every slice but the
// first.
func (r *region) sliceRates() []float64 {
	var out []float64
	for i := 2; i < len(r.marks); i++ {
		dt := (r.marks[i].t - r.marks[i-1].t).Seconds()
		if dt > 0 {
			out = append(out, float64(r.marks[i].ops-r.marks[i-1].ops)/dt)
		}
	}
	return out
}

// steadyOps is the operations completed after the discarded slice.
func (r *region) steadyOps() int64 {
	return r.marks[len(r.marks)-1].ops - r.marks[1].ops
}

// steadyLatencies returns, ascending, the latencies of operations
// that started after the discarded slice.
func (r *region) steadyLatencies() []float64 {
	var out []float64
	for _, s := range r.lat {
		if s.at >= r.marks[1].t {
			out = append(out, s.us)
		}
	}
	return sorted(out)
}

// minSlices is the fewest slices (the discarded one included) a
// region may end with: below it a median of slices means nothing.
const minSlices = 3

func (r *region) validate() error {
	if len(r.marks)-1 < minSlices {
		return fmt.Errorf("timed region ended after %d slices (inputs ran out?), need %d", len(r.marks)-1, minSlices)
	}
	if r.steadyOps() <= 0 {
		return fmt.Errorf("timed region completed no operation after warm-up")
	}
	return nil
}

func takeMark(start time.Time, ops int64) mark {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return mark{
		t:     time.Since(start),
		ops:   ops,
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
	}
}

// peakRSSMB is the process's high-water resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// measure runs drive until it returns, marking progress() at nSlices
// equal time boundaries of dur. drive must stop by itself at the
// deadline; when it stops earlier (a much faster build has used up
// the inputs) the region ends there, with a last, shorter slice.
func measure(dur time.Duration, nSlices int, progress func() int64, drive func(start, deadline time.Time)) []mark {
	start := time.Now()
	marks := []mark{takeMark(start, progress())}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= nSlices; i++ {
			timer := time.NewTimer(time.Until(start.Add(dur * time.Duration(i) / time.Duration(nSlices))))
			select {
			case <-stop:
				timer.Stop()
				return
			case <-timer.C:
				marks = append(marks, takeMark(start, progress()))
			}
		}
	}()
	drive(start, start.Add(dur))
	close(stop)
	wg.Wait()
	if time.Since(start) < dur {
		marks = append(marks, takeMark(start, progress()))
	}
	return marks
}

// clientLog is one client goroutine's private record of a region.
type clientLog struct {
	lat       []sample
	attempted int64
	failed    int64
	failures  []string
}

// maxFailureNotes bounds the failure messages kept per client; the
// count is exact, the text is for the first few.
const maxFailureNotes = 5

func (c *clientLog) fail(format string, args ...any) {
	c.failed++
	if len(c.failures) < maxFailureNotes {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// add folds another log's counts and notes (not its latencies) in.
func (c *clientLog) add(o *clientLog) {
	c.attempted += o.attempted
	c.failed += o.failed
	c.failures = append(c.failures, o.failures...)
}

// merge folds client logs into the region.
func (r *region) merge(logs ...*clientLog) {
	for _, c := range logs {
		r.lat = append(r.lat, c.lat...)
		r.attempted += c.attempted
		r.failed += c.failed
		r.failures = append(r.failures, c.failures...)
	}
}
