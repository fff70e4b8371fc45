// Package testutil holds the leak-check and condition-polling helpers the
// concurrency suites share (the soak in internal/loadgen, the
// served-gateway tests), so every suite applies the same discipline
// instead of carrying per-file copies: no fixed sleeps, only conditions
// polled under a deadline.
package testutil

import (
	"runtime"
	"testing"
	"time"
)

// waitInterval is the polling cadence of every condition wait.
const waitInterval = 10 * time.Millisecond

// WaitFor polls cond until it returns true or timeout elapses, and
// reports whether the condition was met. It never sleeps longer than the
// polling interval at a time, so a condition that becomes true early is
// observed early — the replacement for fixed test sleeps.
func WaitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(waitInterval)
	}
}

// MustWaitFor is WaitFor that fails the test with msg when the condition
// is not met in time.
func MustWaitFor(t testing.TB, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	if !WaitFor(timeout, cond) {
		t.Fatalf("condition not met within %v: %s", timeout, msg)
	}
}

// CheckGoroutineLeaks snapshots the goroutine count now and registers a
// cleanup that polls (under a deadline) for the count to return to the
// snapshot once the test — including every cleanup registered after this
// call — has finished. Call it FIRST in a test, before any fixture is
// built, so the t.Cleanup LIFO order runs the check after the fixtures'
// own cleanups have torn everything down.
func CheckGoroutineLeaks(t testing.TB) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		if WaitFor(5*time.Second, func() bool { return runtime.NumGoroutine() <= before }) {
			return
		}
		t.Errorf("goroutine leak: %d before, %d after teardown", before, runtime.NumGoroutine())
	})
}

// CheckConnDrain asserts that count() (live connections of a server or
// pool) drains to zero under a deadline, polling instead of sleeping —
// closing a TCP client releases its server-side conns asynchronously.
func CheckConnDrain(t testing.TB, name string, count func() int) {
	t.Helper()
	if WaitFor(5*time.Second, func() bool { return count() == 0 }) {
		return
	}
	t.Errorf("connection leak: %s still holds %d conns after teardown", name, count())
}
