package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"github.com/secarchive/sec/internal/store"
)

// startServer runs a transport server over a fresh MemNode and returns the
// backing node, a connected client, and a cleanup-registered server.
func startServer(t *testing.T) (*store.MemNode, *RemoteNode) {
	t.Helper()
	mem := store.NewMemNode("backing")
	srv := NewServer(mem)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	client := NewRemoteNode("remote-0", addr.String(), WithTimeout(2*time.Second))
	t.Cleanup(func() { _ = client.Close() })
	return mem, client
}

func TestRemotePutGetDelete(t *testing.T) {
	_, client := startServer(t)
	id := store.ShardID{Object: "arch/v1", Row: 3}
	payload := []byte{1, 2, 3, 4, 5}
	if err := client.Put(t.Context(), id, payload); err != nil {
		t.Fatal(err)
	}
	got, err := client.Get(t.Context(), id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("Get = %v, want %v", got, payload)
	}
	if err := client.Delete(t.Context(), id); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Get(t.Context(), id); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("Get after delete: err = %v, want ErrNotFound", err)
	}
}

func TestRemoteLargePayload(t *testing.T) {
	_, client := startServer(t)
	id := store.ShardID{Object: "big", Row: 0}
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	if err := client.Put(t.Context(), id, payload); err != nil {
		t.Fatal(err)
	}
	got, err := client.Get(t.Context(), id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("large payload mismatch")
	}
}

func TestRemoteEmptyPayloadAndObject(t *testing.T) {
	_, client := startServer(t)
	id := store.ShardID{Object: "", Row: -2}
	if err := client.Put(t.Context(), id, nil); err != nil {
		t.Fatal(err)
	}
	got, err := client.Get(t.Context(), id)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("Get = %v, want empty", got)
	}
}

func TestRemoteNodeDownPropagates(t *testing.T) {
	mem, client := startServer(t)
	mem.SetFailed(true)
	id := store.ShardID{Object: "o", Row: 0}
	if err := client.Put(t.Context(), id, []byte{1}); !errors.Is(err, store.ErrNodeDown) {
		t.Errorf("Put on failed node: err = %v, want ErrNodeDown", err)
	}
	if client.Available(t.Context()) {
		t.Error("Available = true for failed backing node")
	}
	mem.SetFailed(false)
	if !client.Available(t.Context()) {
		t.Error("Available = false after heal")
	}
}

func TestRemoteStats(t *testing.T) {
	mem, client := startServer(t)
	id := store.ShardID{Object: "o", Row: 0}
	if err := client.Put(t.Context(), id, []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Get(t.Context(), id); err != nil {
		t.Fatal(err)
	}
	got := client.Stats()
	if got.Reads != 1 || got.Writes != 1 || got.BytesWritten != 2 {
		t.Errorf("Stats = %+v", got)
	}
	client.ResetStats()
	if mem.Stats() != (store.NodeStats{}) {
		t.Error("ResetStats did not reach the backing node")
	}
}

// corruptOneShardFile flips a byte in the first shard file of a disk node.
func corruptOneShardFile(t *testing.T, disk *store.DiskNode) {
	t.Helper()
	files, err := disk.ShardFiles()
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no shard files to corrupt")
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x80
	if err := os.WriteFile(files[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteCorruptShardPropagates(t *testing.T) {
	// End to end over the wire: a disk-backed server whose shard file rots
	// must answer Get with the corrupt status, and the client must surface
	// it as store.ErrCorrupt (not ErrNotFound, not a generic error).
	disk, err := store.NewDiskNode("backing", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(disk)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	client := NewRemoteNode("remote", addr.String(), WithTimeout(2*time.Second))
	t.Cleanup(func() { _ = client.Close() })

	id := store.ShardID{Object: "o", Row: 0}
	if err := client.Put(t.Context(), id, []byte("soon to rot")); err != nil {
		t.Fatal(err)
	}
	corruptOneShardFile(t, disk)
	_, err = client.Get(t.Context(), id)
	if !errors.Is(err, store.ErrCorrupt) {
		t.Errorf("Get = %v, want ErrCorrupt", err)
	}
	if errors.Is(err, store.ErrNotFound) || errors.Is(err, store.ErrNodeDown) {
		t.Errorf("corrupt shard misreported: %v", err)
	}
}

func TestStatusCorruptCodec(t *testing.T) {
	if got := statusFor(store.ErrCorrupt); got != statusCorrupt {
		t.Errorf("statusFor(ErrCorrupt) = %d, want %d", got, statusCorrupt)
	}
	err := errorFor(statusCorrupt, []byte("CRC mismatch"), "n0", "get", store.ShardID{Object: "o", Row: 1})
	if !errors.Is(err, store.ErrCorrupt) {
		t.Errorf("errorFor(statusCorrupt) = %v", err)
	}
}

func TestRemoteStatsErr(t *testing.T) {
	mem, client := startServer(t)
	id := store.ShardID{Object: "o", Row: 0}
	if err := client.Put(t.Context(), id, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	stats, err := client.StatsErr(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Writes != 1 || stats.BytesWritten != 3 {
		t.Errorf("StatsErr = %+v", stats)
	}
	_ = mem
}

func TestRemoteStatsErrReportsUnreachable(t *testing.T) {
	srv := NewServer(store.NewMemNode("n"))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := NewRemoteNode("remote", addr.String(), WithTimeout(500*time.Millisecond))
	t.Cleanup(func() { _ = client.Close() })
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.StatsErr(t.Context()); err == nil {
		t.Error("StatsErr against dead server: want error")
	}
	// The legacy interface shim still degrades to zeros.
	if got := client.Stats(); got != (store.NodeStats{}) {
		t.Errorf("Stats against dead server = %+v, want zeros", got)
	}
}

func TestClusterTotalStatsCheckedFlagsDeadRemote(t *testing.T) {
	// Two remote nodes; one server dies. The aggregate must carry the live
	// node's counters and name the unreachable one instead of folding it
	// into silent zeros.
	memA, clientA := startServer(t)
	srvB := NewServer(store.NewMemNode("b"))
	addrB, err := srvB.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	clientB := NewRemoteNode("remote-b", addrB.String(), WithTimeout(500*time.Millisecond))
	t.Cleanup(func() { _ = clientB.Close() })

	c := store.NewCluster([]store.Node{clientA, clientB})
	if err := c.Put(t.Context(), 0, store.ShardID{Object: "o", Row: 0}, []byte{9, 9}); err != nil {
		t.Fatal(err)
	}
	if err := srvB.Close(); err != nil {
		t.Fatal(err)
	}
	total, unreachable := c.TotalStatsChecked(t.Context())
	if total.Writes != 1 || total.BytesWritten != 2 {
		t.Errorf("total = %+v", total)
	}
	if len(unreachable) != 1 || unreachable[0] != "remote-b" {
		t.Errorf("unreachable = %v, want [remote-b]", unreachable)
	}
	_ = memA
}

func TestRemoteConcurrentClients(t *testing.T) {
	_, client := startServer(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := store.ShardID{Object: "o", Row: g}
			for i := 0; i < 30; i++ {
				want := []byte{byte(g), byte(i)}
				if err := client.Put(context.Background(), id, want); err != nil {
					t.Error(err)
					return
				}
				got, err := client.Get(context.Background(), id)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, want) {
					t.Errorf("goroutine %d: Get = %v, want %v", g, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestRemoteReconnectsAfterServerRestart(t *testing.T) {
	mem := store.NewMemNode("backing")
	srv := NewServer(mem)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := NewRemoteNode("remote", addr.String(), WithTimeout(time.Second))
	t.Cleanup(func() { _ = client.Close() })
	id := store.ShardID{Object: "o", Row: 0}
	if err := client.Put(t.Context(), id, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Get(t.Context(), id); !errors.Is(err, store.ErrNodeDown) {
		t.Fatalf("Get with server down: err = %v, want ErrNodeDown", err)
	}
	if client.Available(t.Context()) {
		t.Error("Available = true with server down")
	}
	// Restart on the same address; the client must re-dial transparently.
	srv2 := NewServer(mem)
	if _, err := srv2.Listen(addr.String()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv2.Close() })
	got, err := client.Get(t.Context(), id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1}) {
		t.Error("data mismatch after reconnect")
	}
}

func TestRemoteNodeInCluster(t *testing.T) {
	// A remote node is a drop-in store.Node for Cluster.
	_, client := startServer(t)
	c := store.NewCluster([]store.Node{client})
	id := store.ShardID{Object: "o", Row: 0}
	if err := c.Put(t.Context(), 0, id, []byte{42}); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(t.Context(), 0, id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{42}) {
		t.Error("cluster round trip through remote node failed")
	}
	if !c.Available(t.Context(), 0) {
		t.Error("remote node not available through cluster")
	}
}

func TestServerCloseIdempotentAndRejectsLateListen(t *testing.T) {
	srv := NewServer(store.NewMemNode("n"))
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := srv.Listen("127.0.0.1:0"); err == nil {
		t.Error("Listen after Close: want error")
	}
}

func TestServerRejectsMalformedFrame(t *testing.T) {
	srv := NewServer(store.NewMemNode("n"))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A 1-byte body is too short for any request; the server must answer
	// with a statusError frame rather than crash or hang.
	if err := writeFrame(conn, []byte{opPing}); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	body, _, err := readFrame(conn, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	status, _, err := decodeResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	if status != statusError {
		t.Errorf("status = %d, want statusError", status)
	}
}

// TestRetiredSingleShardOpsAreUnknown: ops 1-3, the single-shard put, get
// and delete clients sent before every shard op was a batch, get the
// "unknown op" answer over a live connection, and the node behind the
// server is not touched.
func TestRetiredSingleShardOpsAreUnknown(t *testing.T) {
	mem := store.NewMemNode("n")
	id := store.ShardID{Object: "o", Row: 1}
	if err := mem.Put(t.Context(), id, []byte{7}); err != nil {
		t.Fatal(err)
	}
	before := mem.Stats()
	srv := NewServer(mem)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
	for op := byte(1); op <= 3; op++ {
		req, err := encodeRequest(op, id, []byte{9})
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(conn, req...); err != nil {
			t.Fatal(err)
		}
		body, _, err := readFrame(conn, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		status, payload, err := decodeResponse(body)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("transport: unknown op %d", op); status != statusError || string(payload) != want {
			t.Errorf("op %d answered status %d %q, want statusError %q", op, status, payload, want)
		}
	}
	if got := mem.Stats(); got != before {
		t.Errorf("retired ops moved the node's stats: %+v, was %+v", got, before)
	}
	if got := srv.RequestStats(); got != (RequestStats{}) {
		t.Errorf("retired ops counted as requests: %+v", got)
	}
}

func TestProtocolRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		req  request
	}{
		{"put with payload", request{op: opPutBatch, id: store.ShardID{Object: "abc", Row: 7}, payload: []byte{1, 2}}},
		{"get", request{op: opGetBatch, id: store.ShardID{Object: "x/y#z", Row: 0}}},
		{"negative row", request{op: opDeleteBatch, id: store.ShardID{Object: "n", Row: -5}}},
		{"empty object", request{op: opPing, id: store.ShardID{}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			body, err := requestFrame(tt.req)
			if err != nil {
				t.Fatal(err)
			}
			got, err := decodeRequest(body)
			if err != nil {
				t.Fatal(err)
			}
			if got.op != tt.req.op || got.id != tt.req.id || !bytes.Equal(got.payload, tt.req.payload) {
				t.Errorf("round trip = %+v, want %+v", got, tt.req)
			}
		})
	}
}

func TestStatsCodec(t *testing.T) {
	want := store.NodeStats{Reads: 1, Writes: 2, Deletes: 3, BytesRead: 1 << 40, BytesWritten: 5}
	got, err := decodeStats(encodeStats(want))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("stats round trip = %+v, want %+v", got, want)
	}
	if _, err := decodeStats([]byte{1, 2, 3}); err == nil {
		t.Error("short stats payload: want error")
	}
}

func TestFrameSizeLimit(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, make([]byte, maxFrame+1)); !errors.Is(err, errFrameTooLarge) {
		t.Errorf("oversized write: err = %v, want errFrameTooLarge", err)
	}
	// A forged oversized header must be rejected on read.
	buf.Reset()
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, _, err := readFrame(&buf, nil, 0); !errors.Is(err, errFrameTooLarge) {
		t.Errorf("oversized read: err = %v, want errFrameTooLarge", err)
	}
}
