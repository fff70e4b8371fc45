package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/store"
	"github.com/secarchive/sec/internal/testutil"
)

// formatNode is a memory node that fails its test when anything puts a
// manifest object on it in the JSON form of builds before the binary node
// format: a snapshot that is not a format-2 envelope, or a record frame
// whose payload is not binary.
type formatNode struct {
	*store.MemNode
	t *testing.T
}

func (n formatNode) PutBatch(ctx context.Context, ids []store.ShardID, data [][]byte) []error {
	for i, id := range ids {
		if strings.Contains(id.Object, "/manifest") && !isBinaryManifest(id.Object, data[i]) {
			n.t.Errorf("%s put in the JSON form: %.60q", id.Object, data[i])
		}
	}
	return n.MemNode.PutBatch(ctx, ids, data)
}

func (n formatNode) Put(ctx context.Context, id store.ShardID, data []byte) error {
	return n.PutBatch(ctx, []store.ShardID{id}, [][]byte{data})[0]
}

// isBinaryManifest reports whether a manifest object is in the binary form.
func isBinaryManifest(object string, data []byte) bool {
	if strings.HasSuffix(object, "/manifest") {
		var env nodeSnapshot
		return json.Unmarshal(data, &env) == nil && env.Format == nodeFormat
	}
	_, payload, _, err := store.DecodeFrame(data)
	return err == nil && len(payload) > 0 && payload[0] == nodeFormat
}

// memNodes returns n memory nodes and a cluster of them, each wrapped by
// wrap when it is not nil.
func memNodes(n int, wrap func(*store.MemNode) store.Node) ([]*store.MemNode, *store.Cluster) {
	mem := make([]*store.MemNode, n)
	nodes := make([]store.Node, n)
	for i := range mem {
		mem[i] = store.NewMemNode(fmt.Sprintf("mem-%d", i))
		nodes[i] = mem[i]
		if wrap != nil {
			nodes[i] = wrap(mem[i])
		}
	}
	return mem, store.NewCluster(nodes)
}

// legacyFrame frames a record the way builds before the binary node format
// did: compact JSON.
func legacyFrame(name string, rec manifestRecord) []byte {
	payload, err := json.Marshal(rec)
	if err != nil {
		panic(err)
	}
	return store.EncodeFrame(recordID(name, rec.Generation), payload)
}

// putOnRing stores data under object on the first n-k+1 nodes of its ring,
// where a publish puts it.
func putOnRing(t *testing.T, nodes []*store.MemNode, n, k int, object string, data []byte) {
	t.Helper()
	for _, i := range replicaRing(object, len(nodes))[:n-k+1] {
		if err := nodes[i].Put(t.Context(), store.ShardID{Object: object}, data); err != nil {
			t.Fatal(err)
		}
	}
}

// parentLoad loads the named archive from the nodes the way builds before
// the binary node format do: each node's snapshot through json.Unmarshal,
// skipped as damaged when that fails or names another archive, the largest
// generation winning; then the records after it, each frame's payload
// through json.Unmarshal, skipped as absent when that fails. found reports
// that such a build takes the archive to exist: its CreateContext answers
// ErrConflict. Its OpenContext then fails with err, the replay's error, or
// calls Open on m.
func parentLoad(t *testing.T, nodes []*store.MemNode, name string) (m Manifest, found bool, err error) {
	t.Helper()
	for _, node := range nodes {
		raw, err := node.Get(t.Context(), store.ShardID{Object: manifestID(name)})
		var snap Manifest
		if err != nil || json.Unmarshal(raw, &snap) != nil || snap.Name != name {
			continue
		}
		if !found || snap.Generation > m.Generation {
			m, found = snap, true
		}
	}
	for found {
		before := m.Generation
		for _, node := range nodes {
			raw, err := node.Get(t.Context(), store.ShardID{Object: recordID(name, m.Generation+1)})
			if err != nil {
				continue
			}
			key, payload, _, err := store.DecodeFrame(raw)
			var rec manifestRecord
			if err != nil || json.Unmarshal(payload, &rec) != nil || key != recordID(name, rec.Generation) {
				continue
			}
			if err := m.apply(rec); err != nil {
				return m, found, err
			}
			break
		}
		if m.Generation == before {
			break
		}
	}
	return m, found, nil
}

// upgradeConfig is an archive whose entries carry the fields of the binary
// form: supports, windows of 256-byte blocks, per-block offsets, digests,
// CDEC deltas and checkpoints (and rebased deltas, once compacted).
func upgradeConfig(name string) Config {
	return Config{Name: name, Scheme: BasicSEC, Code: erasure.NonSystematicCauchy, N: 6, K: 3, BlockSize: 256, CompressDeltas: true, MaxChainLength: 3, CheckpointEvery: 5}
}

// commitEdits commits count versions of sparse edits at both ends of a
// block, each followed by what the archive would publish, and returns the
// versions and the records.
func commitEdits(t *testing.T, a *Archive, rng *rand.Rand, object []byte, count int) (versions [][]byte, records []manifestRecord) {
	t.Helper()
	for i := 0; i < count; i++ {
		if len(versions) > 0 || a.Versions() > 0 {
			object = bytes.Clone(object)
			for _, b := range rng.Perm(3)[:1+rng.Intn(3)] {
				object[b*256+rng.Intn(256)] ^= byte(1 + rng.Intn(255))
			}
		}
		if _, err := a.CommitContext(t.Context(), object); err != nil {
			t.Fatal(err)
		}
		versions = append(versions, object)
		if frame := nextRecord(a); frame != nil {
			records = append(records, decodedRecord(t, a.cfg.Name, frame))
		}
	}
	return versions, records
}

// decodedRecord decodes the record frame of the named archive.
func decodedRecord(t testing.TB, name string, frame []byte) manifestRecord {
	t.Helper()
	rec, _, err := decodeRecord(name, frame)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func readsBack(t *testing.T, a *Archive, versions [][]byte) {
	t.Helper()
	for v, want := range versions {
		got, _, err := a.RetrieveContext(t.Context(), v+1)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("version %d: err %v, byte-identical %v", v+1, err, bytes.Equal(got, want))
		}
	}
}

// TestOpenUpgradesJSONNodes: nodes that hold what a build before the binary
// format left - an indented JSON snapshot and compact JSON records after it -
// open in this build, which replays the records, and its next publish folds
// an envelope over them and deletes them. From then on every manifest
// object it puts on a node is binary, and the nodes alone reopen the
// archive.
func TestOpenUpgradesJSONNodes(t *testing.T) {
	mem, cluster := memNodes(6, func(n *store.MemNode) store.Node { return formatNode{MemNode: n, t: t} })
	older := make([]store.Node, len(mem))
	for i, n := range mem {
		older[i] = n
	}
	a, err := New(upgradeConfig("u"), store.NewCluster(older)) // what the older build wrote goes around the check
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	versions, _ := commitEdits(t, a, rng, make([]byte, 3*256), 4)
	putOnRing(t, mem, 6, 3, manifestID("u"), a.Manifest().encode())
	more, records := commitEdits(t, a, rng, versions[len(versions)-1], 4)
	versions = append(versions, more...)
	for _, rec := range records {
		putOnRing(t, mem, 6, 3, recordID("u", rec.Generation), legacyFrame("u", rec))
	}
	want := a.Manifest()

	b, err := OpenContext(t.Context(), "u", cluster, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := b.Manifest()
	if got.Generation != want.Generation+2 || !reflect.DeepEqual(got.Entries, want.Entries) {
		t.Fatalf("opened generation %d with entries\n%+v\nwant generation %d with\n%+v", got.Generation, got.Entries, want.Generation+2, want.Entries)
	}
	readsBack(t, b, versions)
	if _, err := b.PublishContext(t.Context(), false); err != nil {
		t.Fatal(err)
	}
	for i, node := range mem {
		raw, err := node.Get(t.Context(), store.ShardID{Object: manifestID("u")})
		if err == nil && !isBinaryManifest(manifestID("u"), raw) {
			t.Errorf("node %d still holds a JSON snapshot after the fold", i)
		}
		for _, rec := range records {
			if _, err := node.Get(t.Context(), store.ShardID{Object: recordID("u", rec.Generation)}); !errors.Is(err, store.ErrNotFound) {
				t.Errorf("node %d still holds the JSON record of generation %d: %v", i, rec.Generation, err)
			}
		}
	}

	object := versions[len(versions)-1]
	for i := 0; i < 12; i++ {
		object = bytes.Clone(object)
		object[(i%3)*256+rng.Intn(256)] ^= 0x5a
		if _, err := b.CommitContext(t.Context(), object); err != nil {
			t.Fatal(err)
		}
		versions = append(versions, object)
		if i%5 == 4 {
			if _, err := b.CompactToContext(t.Context(), 1); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := b.PublishContext(t.Context(), i == 11); err != nil {
			t.Fatal(err)
		}
	}
	c, err := OpenContext(t.Context(), "u", cluster, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.Manifest().Entries, b.Manifest().Entries) {
		t.Errorf("reopened from the nodes with entries\n%+v\nwant\n%+v", c.Manifest().Entries, b.Manifest().Entries)
	}
	readsBack(t, c, versions)
}

// TestEnvelopeThenJSONRecordReplays: a build from before the binary form
// that opened from a root it trusted, one it wrote before this build's
// first fold, extends this build's envelope with JSON records; this build
// replays them over the envelope.
func TestEnvelopeThenJSONRecordReplays(t *testing.T) {
	mem, cluster := memNodes(6, nil)
	a, err := New(upgradeConfig("e"), cluster)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	versions, _ := commitEdits(t, a, rng, make([]byte, 3*256), 3)
	putOnRing(t, mem, 6, 3, manifestID("e"), a.nodeSnapshot(a.generation, a.entries))
	more, records := commitEdits(t, a, rng, versions[len(versions)-1], 2)
	versions = append(versions, more...)
	for _, rec := range records {
		putOnRing(t, mem, 6, 3, recordID("e", rec.Generation), legacyFrame("e", rec))
	}
	b, err := OpenContext(t.Context(), "e", cluster, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := a.Manifest(); !reflect.DeepEqual(b.Manifest().Entries, want.Entries) {
		t.Fatalf("replayed entries\n%+v\nwant\n%+v", b.Manifest().Entries, want.Entries)
	}
	readsBack(t, b, versions)
}

// TestOlderLoaderRefusesEnvelope: what this build puts on the nodes makes a
// build from before the binary format refuse the archive rather than take
// it for absent or open less of it than there is. Its loader (parentLoad)
// finds the envelope, so its create of the name is a conflict; it skips
// every binary record as absent; and the manifest it reads names no
// scheme, which its Open refuses. JSON records of its own after the
// envelope append to entries it does not have, and its replay refuses them.
func TestOlderLoaderRefusesEnvelope(t *testing.T) {
	mem, cluster := memNodes(6, nil)
	a, err := CreateContext(t.Context(), "p", upgradeConfig("p").Spec(), cluster)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	object := make([]byte, 3*256)
	refuses := func(what string) Manifest {
		t.Helper()
		m, found, err := parentLoad(t, mem, "p")
		if !found {
			t.Fatalf("%s: the older loader finds no archive, and would create one over it", what)
		}
		if len(m.Entries) != 0 || m.Scheme != "" {
			t.Errorf("%s: the older loader reads %d entries of scheme %q from the envelope", what, len(m.Entries), m.Scheme)
		}
		if err != nil {
			return m
		}
		if _, err := Open(m, cluster); err == nil {
			t.Fatalf("%s: the older loader's Open accepts the manifest it read", what)
		}
		return m
	}
	refuses("after create")
	for i := 0; i < 6; i++ {
		object = bytes.Clone(object)
		object[(i%3)*256+rng.Intn(256)] ^= 0x33
		if _, err := a.CommitContext(t.Context(), object); err != nil {
			t.Fatal(err)
		}
		if _, err := a.PublishContext(t.Context(), false); err != nil {
			t.Fatal(err)
		}
		if m := refuses(fmt.Sprintf("after commit %d", i+1)); m.Generation > a.pub.folded {
			t.Errorf("after commit %d: the older loader applied a binary record (generation %d, snapshot %d)", i+1, m.Generation, a.pub.folded)
		}
	}
	if _, err := a.PublishContext(t.Context(), true); err != nil {
		t.Fatal(err)
	}
	_, records := commitEdits(t, a, rng, object, 2)
	for _, rec := range records {
		putOnRing(t, mem, 6, 3, recordID("p", rec.Generation), legacyFrame("p", rec))
	}
	refuses("with JSON records after the envelope")
}

// TestNewerFormatIsRefused: an intact snapshot envelope or record frame of
// a format this build does not read refuses the archive - the open and the
// create of its name - rather than being skipped as damaged.
func TestNewerFormatIsRefused(t *testing.T) {
	for _, tc := range []struct {
		name   string
		object func(a *Archive) (string, []byte)
	}{
		{"snapshot", func(a *Archive) (string, []byte) {
			raw, _ := json.Marshal(nodeSnapshot{Name: "n", Generation: a.generation + 5, Format: nodeFormat + 1})
			return manifestID("n"), raw
		}},
		{"record", func(a *Archive) (string, []byte) {
			return recordID("n", a.generation+1), store.EncodeFrame(recordID("n", a.generation+1), []byte{nodeFormat + 1})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem, cluster := memNodes(6, nil)
			a, err := CreateContext(t.Context(), "n", upgradeConfig("n").Spec(), cluster)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := a.CommitContext(t.Context(), make([]byte, 3*256)); err != nil {
				t.Fatal(err)
			}
			if _, err := a.PublishContext(t.Context(), false); err != nil {
				t.Fatal(err)
			}
			object, raw := tc.object(a)
			putOnRing(t, mem, 6, 3, object, raw)
			if _, err := OpenContext(t.Context(), "n", cluster, nil); !errors.Is(err, errNewerFormat) {
				t.Errorf("open: err = %v, want a newer format", err)
			}
			if _, err := CreateContext(t.Context(), "n", upgradeConfig("n").Spec(), cluster); err == nil || errors.Is(err, store.ErrNotFound) {
				t.Errorf("create: err = %v, want a refusal", err)
			}
		})
	}
}

// TestWideIntsReopenFromNodes: the binary form carries every int the JSON
// did. An archive created with a 4 GiB read cache and 2 GiB blocks, whose
// snapshot holds a version of 5 GiB and whose record adds one of 6 GiB - 1,
// each encoded by an archive opened from that manifest, reopens from the
// nodes alone with each field as it was, and a create of its name is still
// a conflict.
func TestWideIntsReopenFromNodes(t *testing.T) {
	if math.MaxInt == math.MaxInt32 {
		t.Skip("an int of 32 bits holds none of the sizes")
	}
	wide := 31 // a variable, so that the sizes compile where an int is 32 bits
	blockSize := 1 << wide
	mem, cluster := memNodes(6, nil)
	cfg := Config{Name: "w", Scheme: BasicSEC, Code: erasure.NonSystematicCauchy, N: 6, K: 3, BlockSize: blockSize, ReadCacheBytes: 2 * blockSize}
	a, err := CreateContext(t.Context(), "w", cfg.Spec(), cluster)
	if err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenContext(t.Context(), "w", cluster, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := reopened.Config(); got.ReadCacheBytes != 2*blockSize || got.BlockSize != blockSize {
		t.Fatalf("reopened from the nodes with %+v", got)
	}
	m := a.Manifest()
	m.Generation = 5
	m.Entries = []ManifestEntry{{Version: 1, Full: true, Length: 5 * blockSize / 2, CRC32C: "0000002a"}}
	opened, err := Open(m, cluster)
	if err != nil {
		t.Fatal(err)
	}
	putOnRing(t, mem, 6, 3, manifestID("w"), opened.nodeSnapshot(m.Generation, opened.entries))
	rec := manifestRecord{Generation: 6, Versions: 2, Entries: []ManifestEntry{{Version: 2, Full: true, Length: 3*blockSize - 1}}}
	putOnRing(t, mem, 6, 3, recordID("w", 6), recordFrame(opened, rec))
	b, err := OpenContext(t.Context(), "w", cluster, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := b.Manifest()
	if want := append(m.Entries, rec.Entries...); got.Spec != m.Spec || !reflect.DeepEqual(got.Entries, want) {
		t.Errorf("reopened from the nodes as %+v %+v, want %+v %+v", got.Spec, got.Entries, m.Spec, want)
	}
	if _, err := CreateContext(t.Context(), "w", cfg.Spec(), cluster); !errors.Is(err, store.ErrConflict) {
		t.Errorf("create over the archive: err = %v, want a conflict", err)
	}
}

// nodeManifestSeeds are the shapes FuzzNodeManifest starts from, each under
// the name it is committed as in testdata/fuzz/FuzzNodeManifest: the
// records and the snapshot of an archive's own commits, a chain with
// supports, windows, offsets, digests and CDEC deltas, and byte edits of
// them: entries with tagged fields no build knows yet, which a decode
// skips, and varints cut short. Literal bytes give a support bitmap with
// more bits set than the entry's gamma, and one wider than an int counts,
// and a record frame a build before the binary format wrote.
func nodeManifestSeeds(t testing.TB) map[string][]byte {
	a, err := New(upgradeConfig("t"), store.NewMemCluster(6))
	if err != nil {
		t.Fatal(err)
	}
	var records [][]byte
	object := make([]byte, 3*256)
	rng := rand.New(rand.NewSource(4))
	for v := 1; v <= 8; v++ {
		object = bytes.Clone(object)
		for _, b := range rng.Perm(3)[:1+rng.Intn(3)] {
			object[b*256+rng.Intn(256)] ^= byte(v)
		}
		if _, err := a.CommitContext(context.Background(), object); err != nil {
			t.Fatal(err)
		}
		records = append(records, nextRecord(a))
	}
	k, blockSize := a.cfg.K, a.cfg.BlockSize
	last := records[len(records)-1]
	rec := decodedRecord(t, "t", last)
	_, payload, _, _ := store.DecodeFrame(last)
	payload = slices.Clip(payload)
	// The head of the last record and its first entry, whose tail the tags
	// extend.
	first := rec.Entries[0].Version
	firstEntry := appendEntry(appendRecordHead(nil, rec.Generation, rec.Versions, k), &a.entries[first-1], first, 0, k, blockSize)
	spec, body, snapshot := a.cfg.Spec(), appendBody(nil, a.cfg.Spec(), a.entries), a.nodeSnapshot(a.generation, a.entries)
	frame := func(payload []byte) []byte {
		return store.EncodeFrame(recordID("t", rec.Generation), payload)
	}
	return map[string][]byte{
		"record":        last,
		"records":       bytes.Join(records[5:7], nil),
		"snapshot-body": body,
		"snapshot":      snapshot,
		// tag 6 of three bytes
		"unknown-tag": frame(withTags(payload, firstEntry, 6, 3, 'a', 'b', 'c')),
		// tag 6, empty, then tag 9 of one byte
		"unknown-tags": frame(withTags(payload, firstEntry, 6, 0, 9, 1, 'x')),
		// tag 130, empty, on the second entry
		"unknown-tag-body":       withTags(body, appendBody(nil, spec, a.entries[:2]), 0x82, 0x01, 0),
		"truncated-varint":       frame([]byte{nodeFormat, 0x80}),
		"truncated-varint-entry": frame(append(payload[:4:4], 0xff)),
		"truncated-varint-body":  append(body[:len(body)-1:len(body)-1], 0x80),
		// version 8 of 8 at generation 8: a CDEC delta of gamma 1 and
		// length 768 with a CRC32C, whose bitmap sets blocks 0 and 2
		"bitmap-more-than-gamma": frame([]byte{nodeFormat, 8, 8, 3, 16, flagDelta | flagCompressed | flagCRC | flagSupport, 1, 0x80, 6, 0, 0b101, 0, 0, 0, 0x2a, 0}),
		// a bitmap width of math.MaxInt, whose byte count overflows an int
		"bitmap-wider-than-an-int": frame(append(binary.AppendUvarint([]byte{nodeFormat, 8, 8}, math.MaxInt), 2, flagDelta|flagSupport, 1, 1, 0)),
		"legacy-json-frame":        legacyFrame("t", rec),
		"unknown-record-format":    frame([]byte{nodeFormat + 1}),
		"snapshot-of-newer-format": bytes.Replace(snapshot, []byte(`"format":2`), []byte(`"format":3`), 1),
	}
}

// withTags returns the encoding full with tags inserted into the tail of
// the entry that ends prefix, an encoding of full's entries up to it.
func withTags(full, prefix []byte, tags ...byte) []byte {
	end := len(prefix) - 1 // the entry's closing tag 0
	return slices.Concat(full[:end], tags, full[end:])
}

// FuzzNodeManifest feeds arbitrary bytes to the decoders of the binary node
// format: as a record frame of archive "t", as a snapshot body and as a
// snapshot object. None may panic. Whatever decodes in the binary form
// re-encodes: a body's spec to the same spec, and every entry that entryOf
// accepts for the seeds' archive from the entry it makes, to bytes that
// decode to that entry's JSON view (manifestEntry), the record's head
// unchanged. A legacy JSON record frame is only decoded: its JSON may hold
// what the binary form cannot, such as negative numbers, which Open
// refuses. The committed corpus holds nodeManifestSeeds.
func FuzzNodeManifest(f *testing.F) {
	for _, seed := range nodeManifestSeeds(f) {
		f.Add(seed)
	}
	a, err := New(upgradeConfig("t"), store.NewMemCluster(6))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if rec, _, err := decodeRecord("t", data); err == nil {
			_, payload, _, _ := store.DecodeFrame(data)
			if payload[0] == nodeFormat {
				if b, views, err := appendEntries(appendRecordHead(nil, rec.Generation, rec.Versions, a.cfg.K), a, rec.Entries); err == nil {
					again, err := decodeRecordPayload(b[1:])
					if want := (manifestRecord{Generation: rec.Generation, Versions: rec.Versions, Entries: views}); err != nil || !reflect.DeepEqual(again, want) {
						t.Fatalf("record payload %x decodes to\n%+v\nwhose entries re-encode to\n%+v\nwant\n%+v (err %v)", payload, rec, again, want, err)
					}
				}
			}
		}
		if spec, entries, err := decodeBody(data); err == nil {
			if again, _, err := decodeBody(appendBody(nil, spec, nil)); err != nil || again != spec {
				t.Fatalf("snapshot body %x decodes to spec %+v, which re-encodes to %+v (err %v)", data, spec, again, err)
			}
			if b, views, err := appendEntries(appendBody(nil, a.cfg.Spec(), nil), a, entries); err == nil {
				_, again, err := decodeBody(b)
				if err != nil || !reflect.DeepEqual(again, views) {
					t.Fatalf("snapshot body %x decodes to\n%+v\nwhose entries re-encode to\n%+v\nwant\n%+v (err %v)", data, entries, again, views, err)
				}
			}
		}
		_, _ = DecodeSnapshot(data)
	})
}

// TestNodeManifestSeeds: each seed of FuzzNodeManifest is what its name
// says - the intact ones decode, unknown tags included, the damaged ones
// are malformed, and the newer formats are refused - and is committed under
// its name byte-identical, so that the binary form cannot move unnoticed.
func TestNodeManifestSeeds(t *testing.T) {
	seeds := nodeManifestSeeds(t)
	decodes := func(name string) error {
		data := seeds[name]
		if strings.Contains(name, "body") {
			_, _, err := decodeBody(data)
			return err
		}
		if strings.HasPrefix(name, "snapshot") {
			_, err := DecodeSnapshot(data)
			return err
		}
		for len(data) > 0 {
			_, n, err := decodeRecord("t", data)
			if err != nil {
				return err
			}
			data = data[n:]
		}
		return nil
	}
	for name := range seeds {
		t.Run(name, func(t *testing.T) {
			err := decodes(name)
			switch {
			case strings.HasPrefix(name, "truncated") || strings.HasPrefix(name, "bitmap"):
				if !errors.Is(err, errMalformed) {
					t.Errorf("err = %v, want malformed", err)
				}
			case strings.Contains(name, "newer") || strings.HasPrefix(name, "unknown-record"):
				if !errors.Is(err, errNewerFormat) {
					t.Errorf("err = %v, want a newer format", err)
				}
			case err != nil:
				t.Errorf("err = %v, want it to decode", err)
			}
			raw, err := os.ReadFile(filepath.Join("testdata/fuzz/FuzzNodeManifest", name))
			if err != nil {
				t.Fatal(err)
			}
			if want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seeds[name]); string(raw) != want {
				t.Errorf("committed corpus file differs from the seed:\n%s\nwant\n%s", raw, want)
			}
		})
	}
	plain, _, err := decodeRecord("t", seeds["record"])
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"unknown-tag", "unknown-tags"} {
		if rec, _, err := decodeRecord("t", seeds[name]); err != nil || !reflect.DeepEqual(rec, plain) {
			t.Errorf("%s decodes to\n%+v (err %v)\nwant the record without its tags\n%+v", name, rec, err, plain)
		}
	}
}

// foldChain commits L versions to a (12,10) archive of 256-byte blocks,
// each an edit of one or two blocks at a byte that moves, so that every
// delta records a support, a window narrower than its block and, for two
// blocks at different bytes, offsets of its own; every entry has a CRC32C.
func foldChain(tb testing.TB, L int) *Archive {
	tb.Helper()
	a, err := New(Config{Name: "f", Scheme: BasicSEC, Code: erasure.NonSystematicCauchy, N: 12, K: 10, BlockSize: 256}, store.NewMemCluster(12))
	if err != nil {
		tb.Fatal(err)
	}
	object := make([]byte, a.Capacity())
	for v := 1; v <= L; v++ {
		object = bytes.Clone(object)
		for b := 0; b <= v%2; b++ {
			object[((v+5*b)%10)*256+(v+97*b)%256] ^= byte(v) | 1
		}
		if _, err := a.CommitContext(context.Background(), object); err != nil {
			tb.Fatal(err)
		}
	}
	return a
}

// TestNodeSnapshotAllocatesNoMoreForALongerChain pins what encoding the
// manifest costs a publish in allocations, since it is written from the
// entries themselves: the node snapshot of a (12,10) archive whose entries
// carry supports, windows and CRC32Cs takes the same handful for 1 000
// versions as for 100, and a record of one entry the same few.
func TestNodeSnapshotAllocatesNoMoreForALongerChain(t *testing.T) {
	snapshot, record := map[int]float64{}, map[int]float64{}
	for _, L := range []int{100, 1000} {
		a := foldChain(t, L)
		if e := a.Manifest().Entries[L-1]; len(e.Support) == 0 || e.Window == nil || e.CRC32C == "" {
			t.Fatalf("version %d has no support, window or CRC32C to encode: %+v", L, e)
		}
		snapshot[L] = testing.AllocsPerRun(20, func() {
			a.nodeSnapshot(a.generation, a.entries)
		})
		record[L] = testing.AllocsPerRun(20, func() {
			a.changed = append(a.changed[:0], L)
			a.nextRecordLocked()
		})
	}
	// Under the race detector a sync.Pool drops a random quarter of what is
	// put back, and json.Marshal and fmt pool their state: a few more
	// allocations come and go.
	slack := 0.0
	if testutil.RaceEnabled {
		slack = 4
	}
	if math.Abs(snapshot[1000]-snapshot[100]) > slack || snapshot[1000] > 8+slack {
		t.Errorf("the node snapshot allocates %v times for 100 versions and %v for 1 000, want the same handful (at most 8)", snapshot[100], snapshot[1000])
	}
	if math.Abs(record[1000]-record[100]) > slack || record[1000] > 6+slack {
		t.Errorf("a one-entry record allocates %v times at 100 versions and %v at 1 000, want the same few (at most 6)", record[100], record[1000])
	}
}

// BenchmarkNodeSnapshot is what a fold encodes: the node snapshot of a
// 1 000-version (12,10) archive (foldChain).
func BenchmarkNodeSnapshot(b *testing.B) {
	a := foldChain(b, 1000)
	b.ReportAllocs()
	var size int
	for b.Loop() {
		size = len(a.nodeSnapshot(a.generation, a.entries))
	}
	b.ReportMetric(float64(size), "B/snapshot")
}
