package transport

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/secarchive/sec/internal/store"
)

// TestFrameClasses pins the size classes of the frame pool: the pool's
// shifts are connBufSize and maxPooledFrame, every pooled size has a class
// whose buffer holds it and wastes less than an eighth of a power of two,
// classes grow with the size and fill the pool array, and a class's own
// buffer size maps back to it.
func TestFrameClasses(t *testing.T) {
	if connBufSize != 1<<frameMinShift || maxPooledFrame > maxFrame {
		t.Fatalf("pool bounds 2^%d, 2^%d do not match connBufSize %d and maxFrame %d", frameMinShift, frameMaxShift, connBufSize, maxFrame)
	}
	prev := -1
	for n := connBufSize + 1; n <= maxPooledFrame; n += 97 {
		class, size := frameClass(n)
		if class < prev || class >= len(framePools) {
			t.Fatalf("frame of %d bytes in class %d after class %d, of %d", n, class, prev, len(framePools))
		}
		if size < n || (size-n)*frameClassSteps >= size {
			t.Fatalf("frame of %d bytes gets a %d-byte buffer", n, size)
		}
		if back, _ := frameClass(size); back != class {
			t.Fatalf("a class %d buffer of %d bytes maps to class %d", class, size, back)
		}
		prev = class
	}
	if last, _ := frameClass(maxPooledFrame); last != len(framePools)-1 {
		t.Errorf("the largest pooled frame is in class %d of %d", last, len(framePools))
	}
	if got := getBatchPool(1); got != connBufSize {
		t.Errorf("one large shard pools above %d bytes, want connBufSize", got)
	}
	if got := getBatchPool(20); got <= 20*4<<10 {
		t.Errorf("twenty 4 KiB shards pool above %d bytes: their frame would be pooled", got)
	}
}

// TestFrameReturnsWhenEveryShardIsReleased pins the lending rule: every
// successful result of a frame holds one reference, a failed one none, and
// the frame is the pool's again - scribbled over first, in this suite
// (TestMain) - only once the last holder releases it. A release too many
// is a bug, and panics.
func TestFrameReturnsWhenEveryShardIsReleased(t *testing.T) {
	if !ScribbleReleasedFrames {
		t.Fatal("the transport suite is meant to run with ScribbleReleasedFrames on")
	}
	f := getFrame(connBufSize + 1)
	body := f.buf[:6]
	copy(body, "abcdef")
	results := []store.ShardResult{{Data: body[:3]}, {Err: store.ErrNotFound}, {Data: body[3:]}}
	f.lend(results)
	if results[1].Release != nil {
		t.Fatal("a failed result holds the frame")
	}
	results[0].Release()
	if string(results[2].Data) != "def" {
		t.Fatalf("a shard still held reads %q after its sibling was released", results[2].Data)
	}
	results[2].Release()
	if !bytes.Equal(body, bytes.Repeat([]byte{0xA5}, len(body))) {
		t.Errorf("frame reads %x after its last shard was released, want it scribbled", body)
	}
	defer func() {
		if recover() == nil {
			t.Error("a release too many did not panic")
		}
	}()
	results[0].Release()
}

// countingConn counts the Write calls that reach a connection.
type countingConn struct {
	net.Conn
	writes atomic.Int32
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestRequestLeavesInOneWrite pins that a client writes a frame the way a
// server does, through a connBufSize writer borrowed for it: a put batch of
// one 4 KiB shard - header, shard and length prefix together just above the
// 4 KiB a default bufio.Writer holds - reaches the connection as one write.
func TestRequestLeavesInOneWrite(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	done := make(chan error, 1)
	go func() {
		defer c2.Close()
		if _, _, err := readFrame(bufio.NewReader(c2), nil, 0); err != nil {
			done <- err
			return
		}
		done <- writeFrame(c2, []byte{statusOK}, refBatchResults(make([]store.ShardResult, 1)))
	}()
	conn := &countingConn{Conn: c1}
	cn := &poolConn{c: conn, r: bufio.NewReader(conn)}
	batch, err := encodePutBatch(testIDs("o", 0), [][]byte{bytes.Repeat([]byte{1}, 4<<10)})
	if err != nil {
		t.Fatal(err)
	}
	req, err := encodeRequest(opPutBatch, store.ShardID{}, batch...)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := exchangeOn(cn, req, time.Now().Add(2*time.Second), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil && !errors.Is(err, net.ErrClosed) {
		t.Fatal(err)
	}
	if resp.status != statusOK {
		t.Fatalf("status %d", resp.status)
	}
	if got := conn.writes.Load(); got != 1 {
		t.Errorf("a %d-byte request took %d writes, want 1", 4+req.size(), got)
	}
}
