package transport

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/secarchive/sec/internal/store"
)

// lendingBackend answers Retrieve the way the gateway answers a read its
// cache does not keep: the object as Parts lent from memory that Release
// takes back. Release scribbles over that memory, as the pool does under
// erasure.ScribbleReleasedBuffers, and counts itself; gate, when set, holds
// every Retrieve until it is closed, and entered tells of each one held.
type lendingBackend struct {
	stubArchiveBackend
	object   []byte
	gate     chan struct{}
	entered  chan struct{}
	served   atomic.Int32
	releases atomic.Int32
	released chan struct{} // one send per release, buffered past any test's reads so a release never blocks the server
}

func newLendingBackend(size int) *lendingBackend {
	object := make([]byte, size)
	rand.New(rand.NewSource(int64(size))).Read(object)
	return &lendingBackend{object: object, released: make(chan struct{}, 16)}
}

func (b *lendingBackend) Retrieve(_ context.Context, _ string, version int) (ArchiveVersion, error) {
	if b.gate != nil {
		b.entered <- struct{}{}
		<-b.gate
	}
	b.served.Add(1)
	lent := bytes.Clone(b.object)
	third := len(lent) / 3
	return ArchiveVersion{
		Version: version,
		Parts:   [][]byte{lent[:third], lent[third : 2*third], lent[2*third:]},
		Release: func() {
			for i := range lent {
				lent[i] = 0xA5
			}
			b.releases.Add(1)
			b.released <- struct{}{}
		},
	}, nil
}

// awaitRelease waits for one release, failing the test after a while.
func (b *lendingBackend) awaitRelease(t *testing.T) {
	t.Helper()
	select {
	case <-b.released:
	case <-time.After(5 * time.Second):
		t.Fatal("the served read never released what it was lent")
	}
}

// assertNoFurtherRelease fails if a release arrives beyond the ones awaited.
func (b *lendingBackend) assertNoFurtherRelease(t *testing.T) {
	t.Helper()
	select {
	case <-b.released:
		t.Fatalf("released %d times for %d reads served", b.releases.Load(), b.served.Load())
	case <-time.After(50 * time.Millisecond):
	}
}

// serveLending serves b on loopback, every accepted connection decorated by
// wrap (nil: none).
func serveLending(t *testing.T, b *lendingBackend, wrap func(net.Conn) net.Conn) string {
	t.Helper()
	opts := []ServerOption{WithArchiveBackend(b)}
	if wrap != nil {
		opts = append(opts, WithConnWrapper(wrap))
	}
	srv := NewServer(nil, opts...)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return addr.String()
}

// TestServedReadReleasesAfterItsReply: a lent read is released exactly once
// per read served, and only after its reply is written - the reply, written
// from the lent parts where they lie (200 KiB spans, above the write
// buffer), still carries the object although the release scribbles over
// them.
func TestServedReadReleasesAfterItsReply(t *testing.T) {
	b := newLendingBackend(600 << 10)
	client := NewArchiveClient("gw", serveLending(t, b, nil), WithTimeout(5*time.Second))
	defer client.Close()
	for i := 0; i < 3; i++ {
		v, err := client.Retrieve(t.Context(), "a", 1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(v.Data, b.object) {
			t.Fatal("the reply differs from the object: its parts were released before it was written")
		}
		if v.Release != nil {
			t.Fatal("a dialled read lends nothing, yet came back with a Release")
		}
		b.awaitRelease(t)
	}
	b.assertNoFurtherRelease(t)
	if served, releases := b.served.Load(), b.releases.Load(); served != 3 || releases != 3 {
		t.Fatalf("%d reads served, %d releases; want 3 and 3", served, releases)
	}
}

// failingWrites is a served connection whose every write fails.
type failingWrites struct{ net.Conn }

func (c failingWrites) Write([]byte) (int, error) { return 0, errors.New("write refused") }

// TestServedReadReleasesWhenItsReplyFails: a reply that cannot be written
// releases what it was lent all the same, once.
func TestServedReadReleasesWhenItsReplyFails(t *testing.T) {
	b := newLendingBackend(600 << 10)
	addr := serveLending(t, b, func(c net.Conn) net.Conn { return failingWrites{c} })
	client := NewArchiveClient("gw", addr, WithTimeout(5*time.Second))
	defer client.Close()
	if _, err := client.Retrieve(t.Context(), "a", 1); err == nil {
		t.Fatal("a read whose reply could not be written succeeded")
	}
	b.awaitRelease(t)
	b.assertNoFurtherRelease(t)
	if served, releases := b.served.Load(), b.releases.Load(); served != 1 || releases != 1 {
		t.Fatalf("%d reads served, %d releases; want 1 and 1", served, releases)
	}
}

// TestServedReadReleasesWhenTheClientHangsUp: a client that sends a read and
// hangs up before the backend answers leaves the server writing to a closed
// connection; the read is released once all the same.
func TestServedReadReleasesWhenTheClientHangsUp(t *testing.T) {
	b := newLendingBackend(600 << 10)
	b.gate, b.entered = make(chan struct{}), make(chan struct{}, 1)
	conn, err := net.Dial("tcp", serveLending(t, b, nil))
	if err != nil {
		t.Fatal(err)
	}
	body, err := requestFrame(request{op: opArchGet, id: store.ShardID{Object: "a", Row: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, body); err != nil {
		t.Fatal(err)
	}
	select {
	case <-b.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the server never took the read")
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	close(b.gate)
	b.awaitRelease(t)
	b.assertNoFurtherRelease(t)
	if served, releases := b.served.Load(), b.releases.Load(); served != 1 || releases != 1 {
		t.Fatalf("%d reads served, %d releases; want 1 and 1", served, releases)
	}
}
