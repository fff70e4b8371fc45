package store

import (
	"context"
	"errors"
	"math/rand"
	"time"
)

// Retryable classifies a shard-operation error as transient (worth
// retrying against the same node) or permanent. The classification follows
// the ShardError taxonomy:
//
//   - ErrNodeDown (and anything wrapping it, including transport dial and
//     I/O failures) is transient: the node may come back, a retry can
//     succeed.
//   - ErrNotFound and ErrCorrupt are permanent: the node answered
//     authoritatively; retrying re-reads the same missing or damaged shard.
//   - Context cancellation and deadline expiry are never retryable: the
//     request was withdrawn, not refused.
//
// Unknown causes are conservatively treated as permanent so a retry loop
// never spins on an error it does not understand.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if errors.Is(err, ErrNotFound) || errors.Is(err, ErrCorrupt) {
		return false
	}
	return errors.Is(err, ErrNodeDown)
}

// RetryPolicy bounds how a storage operation is retried after a transient
// failure: exponential backoff with jitter, a per-operation attempt budget,
// and context awareness (a cancelled context stops the loop immediately).
// The zero value performs exactly one attempt (no retries).
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget per operation, including the
	// first. Values below 1 mean 1 (retries disabled).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry. Zero means retries
	// are immediate (useful when the first retry targets a fresh
	// connection rather than a recovering node).
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff. Zero means uncapped.
	MaxDelay time.Duration
	// Multiplier scales the delay between consecutive retries. Values
	// below 1 mean 2.
	Multiplier float64
	// Jitter is the fraction of each delay that is randomized, in [0, 1]:
	// a delay d becomes d - Jitter*d*rand. Jittered retries from many
	// concurrent operations spread out instead of thundering together.
	Jitter float64
}

// DefaultRetryPolicy is a sensible policy for real deployments: three
// attempts with 5ms..250ms jittered exponential backoff.
var DefaultRetryPolicy = RetryPolicy{
	MaxAttempts: 3,
	BaseDelay:   5 * time.Millisecond,
	MaxDelay:    250 * time.Millisecond,
	Multiplier:  2,
	Jitter:      0.5,
}

// attempts returns the effective attempt budget.
func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// Backoff returns the jittered delay to wait before retry number `retry`
// (1-based: the delay after the first failed attempt is Backoff(1)).
func (p RetryPolicy) Backoff(retry int) time.Duration {
	if retry < 1 || p.BaseDelay <= 0 {
		return 0
	}
	mult := p.Multiplier
	if mult < 1 {
		mult = 2
	}
	d := float64(p.BaseDelay)
	for i := 1; i < retry; i++ {
		d *= mult
		if p.MaxDelay > 0 && d >= float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	if p.MaxDelay > 0 && d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.Jitter > 0 {
		j := p.Jitter
		if j > 1 {
			j = 1
		}
		d -= j * d * rand.Float64()
	}
	return time.Duration(d)
}

// Sleep waits the backoff for the given retry, bounded by the context. It
// returns the context's error if cancelled first.
func (p RetryPolicy) Sleep(ctx context.Context, retry int) error {
	d := p.Backoff(retry)
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
