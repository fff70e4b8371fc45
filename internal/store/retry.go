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

// The retry rule, the one every cluster batch runs (see runBatch): a shard
// whose failure is Retryable is re-issued, retryAttempts attempts in all,
// unless the health tracker holds its node off. Before retry r it waits
// retryBaseDelay doubled r-1 times, capped at retryMaxDelay, less a random
// share of up to retryJitter of itself, so the retries of concurrent
// operations spread out instead of thundering together.
const (
	retryAttempts  = 3
	retryBaseDelay = 5 * time.Millisecond
	retryMaxDelay  = 250 * time.Millisecond
	retryJitter    = 0.5
)

// retryDelay returns the jittered wait before retry number retry (1-based:
// the wait after the first failed attempt is retryDelay(1)).
func retryDelay(retry int) time.Duration {
	d := retryBaseDelay
	for i := 1; i < retry && d < retryMaxDelay; i++ {
		d *= 2
	}
	d = min(d, retryMaxDelay)
	return d - time.Duration(retryJitter*float64(d)*rand.Float64())
}

// retrySleep waits retryDelay(retry), bounded by the context: it returns the
// context's error if the context is done first.
func retrySleep(ctx context.Context, retry int) error {
	t := time.NewTimer(retryDelay(retry))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
