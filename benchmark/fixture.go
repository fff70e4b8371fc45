package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"github.com/secarchive/sec/internal/gateway"
	"github.com/secarchive/sec/internal/store"
	"github.com/secarchive/sec/internal/transport"
	"github.com/secarchive/sec/secclient"
)

// rpcTimeout bounds every round trip of the fixture. It is far above any
// latency the benchmark reports: a stall must show as a slow sample, not as
// a failed run.
const rpcTimeout = 30 * time.Second

// fixture is the served stack in one process, wired the way the daemons
// wire it: codeN storage-node servers on loopback TCP, a cluster of remote
// nodes dialing them, a gateway over the cluster persisting manifests under
// its root, and the gateway's own server. With a tracer, the three seams
// below the client are wrapped (see trace.go); without one nothing stands
// between the layers.
type fixture struct {
	dir string // everything this fixture writes; removed by close
	tr  *tracer

	nodeSrvs  []*transport.Server
	nodeAddrs []string

	remotes []*transport.RemoteNode
	cluster *store.Cluster
	gw      *gateway.Gateway
	gwSrv   *transport.Server
	gwAddr  string
}

func startFixture(w *workload, scratch string, tr *tracer) (*fixture, error) {
	dir, err := os.MkdirTemp(scratch, w.name+"-")
	if err != nil {
		return nil, fmt.Errorf("creating fixture dir: %w", err)
	}
	fx := &fixture{dir: dir, tr: tr}
	if err := fx.startNodes(); err != nil {
		fx.close()
		return nil, err
	}
	if err := fx.startGateway(); err != nil {
		fx.close()
		return nil, err
	}
	return fx, nil
}

func (fx *fixture) gatewayRoot() string { return filepath.Join(fx.dir, "gateway") }

// startNodes brings up the node servers, each over an empty memory node.
func (fx *fixture) startNodes() error {
	for i := 0; i < codeN; i++ {
		var node store.Node = store.NewMemNode(fmt.Sprintf("node-%02d", i))
		if fx.tr != nil {
			node = &tracedNode{inner: node, tr: fx.tr, seam: seamNode, index: i}
		}
		srv := transport.NewServer(node)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		fx.nodeSrvs = append(fx.nodeSrvs, srv)
		fx.nodeAddrs = append(fx.nodeAddrs, addr.String())
	}
	return nil
}

func (fx *fixture) startGateway() error {
	fx.remotes = nil
	nodes := make([]store.Node, codeN)
	for i, addr := range fx.nodeAddrs {
		remote := transport.NewRemoteNode(fmt.Sprintf("node-%02d", i), addr, transport.WithTimeout(rpcTimeout))
		fx.remotes = append(fx.remotes, remote)
		nodes[i] = remote
		if fx.tr != nil {
			nodes[i] = &tracedNode{inner: remote, tr: fx.tr, seam: seamLink, index: i}
		}
	}
	fx.cluster = store.NewCluster(nodes)
	gw, err := gateway.New(gateway.Config{Cluster: fx.cluster, Root: fx.gatewayRoot()})
	if err != nil {
		return err
	}
	fx.gw = gw
	var backend transport.ArchiveBackend = gw
	if fx.tr != nil {
		backend = &tracedBackend{ArchiveBackend: gw, tr: fx.tr}
	}
	fx.gwSrv = transport.NewServer(nil, transport.WithArchiveBackend(backend))
	addr, err := fx.gwSrv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	fx.gwAddr = addr.String()
	return nil
}

// stopGateway shuts the gateway side down in the daemon's order: drain the
// server, persist and replicate the resident manifests, drop the node
// links.
func (fx *fixture) stopGateway(ctx context.Context) error {
	var errs []error
	if fx.gwSrv != nil {
		errs = append(errs, fx.gwSrv.Shutdown(ctx))
		fx.gwSrv = nil
	}
	if fx.gw != nil {
		errs = append(errs, fx.gw.Close(ctx))
		fx.gw = nil
	}
	for _, r := range fx.remotes {
		errs = append(errs, r.Close())
	}
	fx.remotes = nil
	return errors.Join(errs...)
}

func (fx *fixture) stopNodes(ctx context.Context) error {
	var errs []error
	for _, s := range fx.nodeSrvs {
		errs = append(errs, s.Shutdown(ctx))
	}
	fx.nodeSrvs = nil
	return errors.Join(errs...)
}

// restart is the reopen phase's program side: the gateway, its server and
// its node links are closed and brought up again from the manifests under
// the gateway root. The memory nodes stay up: their shards would not survive
// a restart.
func (fx *fixture) restart(ctx context.Context) error {
	if err := fx.stopGateway(ctx); err != nil {
		return err
	}
	return fx.startGateway()
}

func (fx *fixture) dial(id int) *secclient.Client {
	return secclient.Dial(fx.gwAddr, secclient.WithTimeout(rpcTimeout), secclient.WithID(fmt.Sprintf("bench-client-%d", id)))
}

// close tears everything down and removes the fixture's directory.
func (fx *fixture) close() {
	ctx, cancel := context.WithTimeout(context.Background(), rpcTimeout)
	defer cancel()
	_ = fx.stopGateway(ctx) // teardown: the run's result no longer depends on it
	_ = fx.stopNodes(ctx)
	_ = os.RemoveAll(fx.dir)
}

// treeBytes sums the sizes of the regular files under root.
func treeBytes(root string) (int64, error) {
	var total int64
	err := filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("measuring %s: %w", root, err)
	}
	return total, nil
}
