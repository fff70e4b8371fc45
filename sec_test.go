package sec_test

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	sec "github.com/secarchive/sec"
)

// TestPublicAPIQuickstart exercises the documented quick-start flow end to
// end through the facade only.
func TestPublicAPIQuickstart(t *testing.T) {
	cluster := sec.NewMemCluster(6)
	archive, err := sec.NewArchive(sec.ArchiveConfig{
		Name:      "quick",
		Scheme:    sec.BasicSEC,
		Code:      sec.NonSystematicCauchy,
		N:         6,
		K:         3,
		BlockSize: 1024,
	}, cluster)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	v1 := make([]byte, archive.Capacity())
	rng.Read(v1)
	if _, err := archive.CommitContext(t.Context(), v1); err != nil {
		t.Fatal(err)
	}
	v2, err := sec.SparseEdit(rng, v1, 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	info, err := archive.CommitContext(t.Context(), v2)
	if err != nil {
		t.Fatal(err)
	}
	if info.Gamma != 1 || !info.StoredDelta {
		t.Fatalf("commit info = %+v", info)
	}
	got, stats, err := archive.RetrieveContext(t.Context(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v2) {
		t.Error("retrieved version mismatch")
	}
	if stats.NodeReads != 5 {
		t.Errorf("NodeReads = %d, want 5", stats.NodeReads)
	}
	if _, _, err := archive.RetrieveContext(t.Context(), 3); !errors.Is(err, sec.ErrNoSuchVersion) {
		t.Errorf("err = %v, want ErrNoSuchVersion", err)
	}
}

// TestPublicAPIManifestRoundTrip saves and reopens an archive through the
// facade.
func TestPublicAPIManifestRoundTrip(t *testing.T) {
	cluster := sec.NewMemCluster(0)
	archive, err := sec.NewArchive(sec.ArchiveConfig{
		Scheme:    sec.OptimizedSEC,
		Code:      sec.SystematicCauchy,
		N:         6,
		K:         3,
		BlockSize: 8,
	}, cluster)
	if err != nil {
		t.Fatal(err)
	}
	content := []byte("versioned content here!")
	if _, err := archive.CommitContext(t.Context(), content); err != nil {
		t.Fatal(err)
	}
	reopened, err := sec.OpenArchive(archive.Manifest(), cluster)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := reopened.RetrieveContext(t.Context(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Error("manifest round trip mismatch")
	}
}

// TestPublicAPIOverTCP runs an archive against real TCP node servers via
// the facade.
func TestPublicAPIOverTCP(t *testing.T) {
	const n = 6
	nodes := make([]sec.StorageNode, n)
	for i := 0; i < n; i++ {
		backing := sec.NewMemNode("backing")
		srv := sec.NewNodeServer(backing)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		client := sec.DialNode("remote", addr.String())
		t.Cleanup(func() { _ = client.Close() })
		nodes[i] = client
	}
	cluster := sec.NewCluster(nodes)
	archive, err := sec.NewArchive(sec.ArchiveConfig{
		Scheme:    sec.BasicSEC,
		Code:      sec.NonSystematicCauchy,
		N:         n,
		K:         3,
		BlockSize: 256,
	}, cluster)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	v1 := make([]byte, archive.Capacity())
	rng.Read(v1)
	if _, err := archive.CommitContext(t.Context(), v1); err != nil {
		t.Fatal(err)
	}
	v2, err := sec.SparseEdit(rng, v1, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := archive.CommitContext(t.Context(), v2); err != nil {
		t.Fatal(err)
	}
	got, stats, err := archive.RetrieveContext(t.Context(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v2) {
		t.Error("TCP retrieval mismatch")
	}
	if stats.NodeReads != 5 {
		t.Errorf("NodeReads over TCP = %d, want 5", stats.NodeReads)
	}
}

// TestPublicAPIRepository drives the version-store layer.
func TestPublicAPIRepository(t *testing.T) {
	repo, err := sec.NewRepository(sec.RepositoryConfig{
		Scheme:    sec.BasicSEC,
		Code:      sec.NonSystematicCauchy,
		N:         6,
		K:         3,
		BlockSize: 32,
	}, sec.NewMemCluster(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repo.CommitContext(t.Context(), "init", map[string][]byte{"a.txt": []byte("one")}); err != nil {
		t.Fatal(err)
	}
	if _, err := repo.CommitContext(t.Context(), "more", map[string][]byte{"a.txt": []byte("two")}); err != nil {
		t.Fatal(err)
	}
	content, _, err := repo.CheckoutFileContext(t.Context(), "a.txt", 1)
	if err != nil {
		t.Fatal(err)
	}
	if string(content) != "one" {
		t.Errorf("a.txt@1 = %q", content)
	}
}

// TestPublicAPIWorkloads sanity-checks the generator re-exports.
func TestPublicAPIWorkloads(t *testing.T) {
	rng := rand.New(rand.NewSource(time.Now().UnixNano())) // properties hold for any seed
	doc, err := sec.NewTextDocument(rng, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Len() != 1024 {
		t.Errorf("doc len = %d", doc.Len())
	}
	img, err := sec.NewBackupImage(rng, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	if img.Files() != 8 {
		t.Errorf("files = %d", img.Files())
	}
	if _, err := img.Churn(rng, 2); err != nil {
		t.Fatal(err)
	}
}

// TestPlacementReExports verifies the placement types satisfy the facade
// interface.
func TestPlacementReExports(t *testing.T) {
	var _ sec.Placement = sec.ColocatedPlacement{}
	var _ sec.Placement = sec.DispersedPlacement{N: 6}
	if sec.ColocatedPlacement.NodeFor(sec.ColocatedPlacement{}, 3, 2) != 2 {
		t.Error("colocated NodeFor broken")
	}
}
