package core

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"github.com/secarchive/sec/internal/store"
)

// This file is the binary form in which the nodes hold an archive's
// manifest, format 2 (the JSON that builds before it wrote is format 1),
// written from the entries and their codewords. A record's payload is the
// format byte, then varints: the generation, the version count and the
// width of the support bitmaps, k (appendRecordHead), then the changed
// entries until the payload ends. A snapshot is a compact JSON envelope,
// Archive.nodeSnapshot, whose body is the spec and every entry. Each entry
// (appendEntry, beside the JSON view in codeword.go) is
//
//	varint   version, less the previous entry's (0 before the first)
//	byte     flags: full, delta, checkpoint, compressed, window, CRC32C,
//	         support, offsets
//	uvarint  gamma, length, base
//	bytes    support: a bitmap of ⌈bits/8⌉ bytes, block i at bit i%8 of byte i/8
//	uvarint  window offset and width
//	uvarint  one offset per support block
//	4 bytes  CRC32C, big-endian
//	tail     uvarint tag, uvarint length, that many bytes; ... ; tag 0
//
// where a field the flags do not name is absent. The tail holds the fields
// later builds add, and a build skips every tag it does not know; this one
// knows none. A field whose loss would break a read is not a tag: it takes
// a new format number, which older builds refuse. The decoders return the
// JSON view, so entryOf checks what the nodes hold as it checks an import.

// nodeFormat tags the binary form: a record's first payload byte and a
// snapshot envelope's "format". A legacy JSON record starts with '{'.
const nodeFormat = 2

// The flags byte of an entry.
const (
	flagFull = 1 << iota
	flagDelta
	flagCheckpoint
	flagCompressed
	flagWindow
	flagCRC
	flagSupport
	flagOffsets
)

var (
	// errMalformed is a binary manifest object that does not parse.
	errMalformed = fmt.Errorf("%w: malformed binary manifest", store.ErrCorrupt)
	// errNewerFormat is an intact manifest object in a format this build
	// does not read: the archive is refused, not taken for absent.
	errNewerFormat = errors.New("core: the nodes hold the manifest in a format this build does not read")
)

// nodeSnapshot is the snapshot object on the nodes. It is JSON, so that a
// build from before format 2 parses it instead of skipping it as damaged,
// takes it for the newest snapshot of the archive, and refuses it: the spec
// and the entries are only in Body, so the manifest it reads names no
// scheme, which Open refuses and CreateContext counts as an archive that
// exists.
type nodeSnapshot struct {
	Name       string `json:"name"`
	Generation uint64 `json:"generation"`
	Format     int    `json:"format"`
	Body       []byte `json:"body"`
}

// nodeSnapshot renders the snapshot object of the archive at generation
// gen holding entries: the chain, or a copy of it taken under the lock.
func (a *Archive) nodeSnapshot(gen uint64, entries []entry) []byte {
	body := appendBody(make([]byte, 0, 64+entryBytes*len(entries)), a.cfg.Spec(), entries)
	data, _ := json.Marshal(nodeSnapshot{Name: a.cfg.Name, Generation: gen, Format: nodeFormat, Body: body})
	return data
}

// entryBytes sizes a buffer of entries: about what one with a support, a
// window and a CRC32C takes, so that a long chain grows it a few times.
const entryBytes = 24

// DecodeSnapshot parses a manifest in either form the program meets: the
// envelope, as the nodes and the gateway root hold it, or a JSON manifest -
// Save's export, or a snapshot an earlier build wrote. An intact envelope of
// a format other than 2 is refused as newer.
func DecodeSnapshot(raw []byte) (Manifest, error) {
	var s struct {
		Manifest
		Format int    `json:"format"`
		Body   []byte `json:"body"`
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		return Manifest{}, err
	}
	switch s.Format {
	case 0:
		return s.Manifest, nil
	case nodeFormat:
		spec, entries, err := decodeBody(s.Body)
		return Manifest{Name: s.Name, Generation: s.Generation, Spec: spec, Entries: entries}, err
	default:
		return Manifest{}, fmt.Errorf("%w: snapshot format %d", errNewerFormat, s.Format)
	}
}

// appendBody appends a snapshot's body: the spec, then the entries of
// versions 1..len(entries).
func appendBody(b []byte, s Spec, entries []entry) []byte {
	for _, str := range []string{s.Scheme, s.Code, s.Field, s.Placement} {
		b = binary.AppendUvarint(b, uint64(len(str)))
		b = append(b, str...)
	}
	for _, v := range []int{s.N, s.K, s.BlockSize, s.MaxChainLength, s.CheckpointEvery, s.ReadCacheBytes} {
		b = binary.AppendUvarint(b, uint64(v))
	}
	b = append(b, boolByte(s.CompressDeltas))
	for i := range entries {
		b = appendEntry(b, &entries[i], i+1, i, s.K, s.BlockSize)
	}
	return b
}

// decodeBody is the inverse of appendBody.
func decodeBody(body []byte) (s Spec, entries []ManifestEntry, err error) {
	r := decoder{buf: body}
	for _, str := range []*string{&s.Scheme, &s.Code, &s.Field, &s.Placement} {
		*str = string(r.bytes(r.int()))
	}
	for _, v := range []*int{&s.N, &s.K, &s.BlockSize, &s.MaxChainLength, &s.CheckpointEvery, &s.ReadCacheBytes} {
		*v = r.int()
	}
	switch r.byte() {
	case 0:
	case 1:
		s.CompressDeltas = true
	default:
		r.fail()
	}
	entries = r.entries(s.K)
	return s, entries, r.err
}

// appendRecordHead appends the head of a record's payload, which the
// changed entries follow: the format byte, the generation, the version
// count and the width of the support bitmaps, the archive's k.
func appendRecordHead(b []byte, gen uint64, versions, k int) []byte {
	b = append(b, nodeFormat)
	b = binary.AppendUvarint(b, gen)
	b = binary.AppendUvarint(b, uint64(versions))
	return binary.AppendUvarint(b, uint64(k))
}

// decodeRecordPayload decodes a record's payload past its format byte.
func decodeRecordPayload(payload []byte) (manifestRecord, error) {
	r := decoder{buf: payload}
	rec := manifestRecord{Generation: r.uvarint(), Versions: r.int()}
	rec.Entries = r.entries(r.int())
	return rec, r.err
}

// decoder reads a binary manifest object. The first failure sticks: every
// later read returns zero values, and err says the object is malformed.
type decoder struct {
	buf []byte
	err error
}

func (r *decoder) fail() {
	r.err, r.buf = errMalformed, nil
}

// bytes reads n bytes; a negative n is a count that overflowed an int.
func (r *decoder) bytes(n int) []byte {
	if n < 0 || n > len(r.buf) {
		r.fail()
	}
	if r.err != nil {
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

func (r *decoder) byte() byte {
	if b := r.bytes(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.bytes(n)
	return v
}

// int reads a uvarint that must fit an int: what the encoder wrote of a
// non-negative int.
func (r *decoder) int() int {
	v := r.uvarint()
	if v > math.MaxInt {
		r.fail()
		return 0
	}
	return int(v)
}

// entries reads entries until the object ends.
func (r *decoder) entries(width int) []ManifestEntry {
	var entries []ManifestEntry
	prev := 0
	for r.err == nil && len(r.buf) > 0 {
		e := r.entry(prev, width)
		entries = append(entries, e)
		prev = e.Version
	}
	if r.err != nil {
		return nil
	}
	return entries
}

func (r *decoder) entry(prev, width int) ManifestEntry {
	zigzag := r.uvarint() // binary.AppendVarint's encoding
	e := ManifestEntry{Version: prev + int(int64(zigzag>>1)^-int64(zigzag&1))}
	flags := r.byte()
	e.Full, e.Delta, e.Checkpoint, e.Compressed = flags&flagFull != 0, flags&flagDelta != 0, flags&flagCheckpoint != 0, flags&flagCompressed != 0
	e.Gamma, e.Length, e.Base = r.int(), r.int(), r.int()
	if flags&flagSupport != 0 {
		bitmap := r.bytes((width + 7) / 8)
		for i := 0; i < len(bitmap)*8; i++ {
			if bitmap[i/8]&(1<<(i%8)) != 0 {
				e.Support = append(e.Support, i)
			}
		}
		// Set bits are the support's gamma blocks, inside the bitmap's width.
		if len(e.Support) == 0 || len(e.Support) != e.Gamma || e.Support[len(e.Support)-1] >= width {
			r.fail()
		}
	}
	if flags&flagWindow != 0 {
		e.Window = &Window{Off: r.int(), Width: r.int()}
	}
	if flags&flagOffsets != 0 {
		if len(e.Support) == 0 {
			r.fail()
		}
		e.Offsets = make([]int, len(e.Support))
		for i := range e.Offsets {
			e.Offsets[i] = r.int()
		}
	}
	if flags&flagCRC != 0 {
		if crc := r.bytes(4); crc != nil {
			e.CRC32C = fmt.Sprintf("%08x", binary.BigEndian.Uint32(crc))
		}
	}
	for tag := r.uvarint(); tag != 0 && r.err == nil; tag = r.uvarint() {
		r.bytes(r.int()) // a field of a later build
	}
	return e
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
