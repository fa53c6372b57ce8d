package exp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// setGOMAXPROCS pins the core count ForEach's parallel <= 0 resolves to,
// restoring the host's value when the test ends.
func setGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// goid parses the running goroutine's id off its stack header
// ("goroutine N [running]:").
func goid() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// TestForEachOneRule pins the one rule for run-level parallelism:
// parallel <= 0 fans out to min(GOMAXPROCS, n) goroutines and never
// more, and 1 (or all cores = 1) runs every index in order on the
// calling goroutine.
func TestForEachOneRule(t *testing.T) {
	for _, c := range []struct{ procs, n, want int }{{4, 16, 4}, {4, 2, 2}, {2, 16, 2}} {
		setGOMAXPROCS(t, c.procs)
		// Every index holds its slot until c.want indices run at once, so
		// reaching the peak does not depend on scheduling luck.
		var active, peak atomic.Int64
		full := make(chan struct{})
		var once sync.Once
		err := ForEach(context.Background(), 0, c.n, func(int) error {
			a := active.Add(1)
			defer active.Add(-1)
			for p := peak.Load(); a > p && !peak.CompareAndSwap(p, a); p = peak.Load() {
			}
			if a >= int64(c.want) {
				once.Do(func() { close(full) })
			}
			select {
			case <-full:
				return nil
			case <-time.After(5 * time.Second):
				return fmt.Errorf("only %d of %d indices ever ran concurrently", peak.Load(), c.want)
			}
		})
		if err != nil {
			t.Errorf("GOMAXPROCS=%d n=%d: %v", c.procs, c.n, err)
		}
		if p := peak.Load(); p != int64(c.want) {
			t.Errorf("GOMAXPROCS=%d n=%d: peak concurrency %d, want %d", c.procs, c.n, p, c.want)
		}
	}

	inline := func(parallel int) {
		t.Helper()
		caller, next := goid(), 0
		err := ForEach(context.Background(), parallel, 8, func(i int) error {
			if g := goid(); g != caller {
				t.Errorf("parallel=%d: index %d ran on goroutine %s, caller is %s", parallel, i, g, caller)
			}
			if i != next {
				t.Errorf("parallel=%d: index %d ran at position %d", parallel, i, next)
			}
			next++
			return nil
		})
		if err != nil || next != 8 {
			t.Errorf("parallel=%d: ran %d of 8 indices, err %v", parallel, next, err)
		}
	}
	inline(1) // on 4 cores
	setGOMAXPROCS(t, 1)
	inline(0) // all cores = one core
}

// TestForEachStopsAfterError pins the audit: after the first failure no
// NEW index starts; in-flight indices finish. parallel 0 (all cores,
// here 2) behaves exactly as the explicit 2.
func TestForEachStopsAfterError(t *testing.T) {
	setGOMAXPROCS(t, 2)
	for _, parallel := range []int{2, 0} {
		const n = 64
		var started atomic.Int64
		boom := errors.New("boom")
		err := ForEach(context.Background(), parallel, n, func(i int) error {
			started.Add(1)
			if i == 0 {
				return boom
			}
			time.Sleep(time.Millisecond)
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("parallel=%d: err = %v, want boom", parallel, err)
		}
		// 2 workers: index 0 fails almost immediately; the other worker may
		// claim a handful before observing the stop flag, but nowhere near
		// all of them.
		if s := started.Load(); s >= n {
			t.Fatalf("parallel=%d: all %d indices started despite an early failure", parallel, s)
		}
	}
}

// TestForEachCtxCancel pins prompt cancellation propagation, for an
// explicit pool size and for parallel 0 (all cores, here 2).
func TestForEachCtxCancel(t *testing.T) {
	setGOMAXPROCS(t, 2)
	for _, parallel := range []int{2, 0} {
		ctx, cancel := context.WithCancel(context.Background())
		var started atomic.Int64
		errc := make(chan error, 1)
		go func() {
			errc <- ForEach(ctx, parallel, 1000, func(i int) error {
				started.Add(1)
				time.Sleep(2 * time.Millisecond)
				return nil
			})
		}()
		for started.Load() < 2 {
			time.Sleep(time.Millisecond)
		}
		cancel()
		select {
		case err := <-errc:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("parallel=%d: err = %v, want context.Canceled", parallel, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("parallel=%d: ForEach did not return after cancel", parallel)
		}
		if s := started.Load(); s >= 1000 {
			t.Fatalf("parallel=%d: cancellation did not stop new indices (%d started)", parallel, s)
		}
		// Sequential path honors ctx too.
		if err := ForEach(ctx, 1, 5, func(int) error { return nil }); !errors.Is(err, context.Canceled) {
			t.Fatalf("sequential ForEach under canceled ctx = %v", err)
		}
	}
}
