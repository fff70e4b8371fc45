package transport

import (
	"context"
	"testing"
	"time"

	"github.com/secarchive/sec/internal/store"
	"github.com/secarchive/sec/internal/testutil"
)

// gatedPingNode parks every liveness ping it is asked until released (or
// until the server cancels it), announcing each arrival.
type gatedPingNode struct {
	*store.MemNode
	entered chan struct{}
	release chan struct{}
}

func (g *gatedPingNode) Available(ctx context.Context) bool {
	g.entered <- struct{}{}
	select {
	case <-g.release:
	case <-ctx.Done():
	}
	return g.MemNode.Available(ctx)
}

func startGatedPingServer(t *testing.T, opts ...ClientOption) (*RemoteNode, *gatedPingNode, *Server) {
	t.Helper()
	node := &gatedPingNode{
		MemNode: store.NewMemNode("gated"),
		entered: make(chan struct{}, 16), // above any test's ping count: arrivals never block the server
		release: make(chan struct{}),
	}
	srv := NewServer(node)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	client := NewRemoteNode("remote", addr.String(), opts...)
	t.Cleanup(func() { _ = client.Close() })
	return client, node, srv
}

// waitJoined waits until want callers share the client's in-flight ping.
func waitJoined(t *testing.T, client *RemoteNode, want int) {
	t.Helper()
	testutil.MustWaitFor(t, 5*time.Second, func() bool {
		client.pingMu.Lock()
		defer client.pingMu.Unlock()
		return client.ping != nil && client.ping.joined == want
	}, "the callers did not all join the ping in flight")
}

// TestConcurrentPingsShareOneExchange: m readers asking one node whether it
// is up while a ping is in flight put one ping on the wire and all take its
// answer; the next caller, with nothing in flight, pings again.
func TestConcurrentPingsShareOneExchange(t *testing.T) {
	const m = 8
	client, node, srv := startGatedPingServer(t, WithPingTimeout(30*time.Second))
	answers := make(chan bool, m)
	for i := 0; i < m; i++ {
		go func() { answers <- client.Available(t.Context()) }()
	}
	<-node.entered
	waitJoined(t, client, m)
	if pings := srv.RequestStats().Pings; pings != 1 {
		t.Errorf("%d pings on the wire for %d concurrent callers, want 1", pings, m)
	}
	close(node.release)
	for i := 0; i < m; i++ {
		if !<-answers {
			t.Error("a caller sharing the ping was told the node is down")
		}
	}
	if pings := srv.RequestStats().Pings; pings != 1 {
		t.Errorf("%d pings on the wire after the shared answer, want 1", pings)
	}
	if !client.Available(t.Context()) {
		t.Error("Available = false with nothing in flight")
	}
	if pings := srv.RequestStats().Pings; pings != 2 {
		t.Errorf("%d pings after a later call, want 2 (an answer is not cached)", pings)
	}
}

// TestSilentNodeCostsOnePingTimeout: callers meeting a node that never
// answers wait one ping timeout between them, not one each in a row.
func TestSilentNodeCostsOnePingTimeout(t *testing.T) {
	const m, pingTimeout = 4, 300 * time.Millisecond
	client, node, srv := startGatedPingServer(t, WithPingTimeout(pingTimeout))
	defer close(node.release)
	answers := make(chan bool, m)
	start := time.Now()
	for i := 0; i < m; i++ {
		go func() { answers <- client.Available(t.Context()) }()
	}
	<-node.entered
	waitJoined(t, client, m)
	for i := 0; i < m; i++ {
		if <-answers {
			t.Error("a silent node was reported up")
		}
	}
	if elapsed := time.Since(start); elapsed >= 2*pingTimeout {
		t.Errorf("%d callers waited %v for a silent node, want one %v ping timeout", m, elapsed, pingTimeout)
	}
	if pings := srv.RequestStats().Pings; pings != 1 {
		t.Errorf("%d pings on the wire, want 1", pings)
	}
}

// TestPingWaiterKeepsItsOwnContext: a waiter leaves when its own context
// ends, and a ping withdrawn by its caller's context is no answer - the
// waiter left behind asks the node itself.
func TestPingWaiterKeepsItsOwnContext(t *testing.T) {
	client, node, srv := startGatedPingServer(t, WithPingTimeout(30*time.Second))
	leaderCtx, cancelLeader := context.WithCancel(t.Context())
	defer cancelLeader()
	leader := make(chan bool, 1)
	go func() { leader <- client.Available(leaderCtx) }()
	<-node.entered

	impatientCtx, cancelImpatient := context.WithCancel(t.Context())
	impatient, patient := make(chan bool, 1), make(chan bool, 1)
	go func() { impatient <- client.Available(impatientCtx) }()
	go func() { patient <- client.Available(t.Context()) }()
	waitJoined(t, client, 3)
	cancelImpatient()
	if <-impatient {
		t.Error("a waiter whose context ended reported the node up")
	}
	select {
	case up := <-patient:
		t.Fatalf("the patient waiter returned %v while the ping was still in flight", up)
	default:
	}

	cancelLeader()
	if <-leader {
		t.Error("a cancelled ping reported the node up")
	}
	<-node.entered // the patient waiter's own ping
	close(node.release)
	if !<-patient {
		t.Error("the waiter took a withdrawn ping for an answer: node reported down")
	}
	if pings := srv.RequestStats().Pings; pings != 2 {
		t.Errorf("%d pings on the wire, want 2 (the withdrawn one and the waiter's own)", pings)
	}
}
