// Package transport exposes storage nodes over TCP so SEC archives can run
// against a real networked cluster: a Server serves any store.Node, and the
// RemoteNode client implements store.Node over the wire.
//
// The protocol is a simple length-prefixed binary framing:
//
//	frame  := u32(length) body
//	request body  := u8(op) u16(len(object)) object i32(row) payload
//	response body := u8(status) payload
//
// All integers are big-endian. Shard data travels only in batches (see
// "Batch framing" below); Stats responses carry five u64 counters; error
// responses carry a message.
package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"github.com/secarchive/sec/internal/obs"
	"github.com/secarchive/sec/internal/store"
)

// Operation codes. opGetBatch/opPutBatch were added after opResetStats and
// opDeleteBatch after opPutBatch; new codes must keep appending so wire
// values stay stable across versions.
const (
	// Codes 1-3 were the single-shard put, get and delete, retired once
	// every shard op travelled as a batch; a server answers them "unknown
	// op". They stay reserved so no later code changes its wire value.
	_ byte = iota + 1
	_
	_
	opPing
	opStats
	opResetStats
	opGetBatch
	opPutBatch
	opDeleteBatch
)

// Response status codes. statusCorrupt was added after statusError, and
// statusPartial after statusCorrupt; new codes must keep appending so wire
// values stay stable across versions.
const (
	statusOK byte = iota
	statusNotFound
	statusNodeDown
	statusError
	statusCorrupt
	// statusPartial marks a continuation frame: the logical response
	// payload exceeds one frame (e.g. a get batch whose shards together
	// outgrow maxFrame), so the server splits it across several frames,
	// all but the last carrying statusPartial. The client concatenates
	// payloads until a terminal status arrives. Splitting - instead of
	// refusing the batch - matters for I/O accounting: the shards were
	// already read and counted on the node, so failing the batch would
	// have a retry read and count them all a second time.
	statusPartial
	// statusBusy was added after statusPartial (the archive-gateway ops):
	// the server refused admission (writer queue full); the request never
	// started and the client may retry after backoff.
	statusBusy
	// statusConflict was added after statusBusy: an optimistic
	// precondition failed (commit against a stale expected version,
	// create of an archive that already exists). Retrying without
	// re-reading current state will not succeed.
	statusConflict
)

// maxFrame bounds a frame body to keep a malformed peer from forcing huge
// allocations.
const maxFrame = 64 << 20

// errFrameTooLarge is returned when a peer announces an oversized frame.
var errFrameTooLarge = errors.New("transport: frame exceeds size limit")

// errEmptyResponse reports a response frame with no status byte.
var errEmptyResponse = errors.New("transport: empty response body")

// parts is a frame body, or a stretch of one, as the slices it is made of in
// wire order: the few header bytes an encoder builds and the payload slices
// it was handed, which are written from where they lie instead of being
// copied into one buffer first (DESIGN.md section 7, "Who owns a frame").
type parts [][]byte

func (p parts) size() int {
	n := 0
	for _, part := range p {
		n += len(part)
	}
	return n
}

// split cuts the list after n bytes, inside a part where the cut falls in
// one. p itself is left as it was.
func (p parts) split(n int) (head, tail parts) {
	for i, part := range p {
		if n < len(part) {
			head = append(append(head, p[:i]...), part[:n])
			tail = append(parts{part[n:]}, p[i+1:]...)
			return head, tail
		}
		n -= len(part)
	}
	return p, nil
}

// splicer builds a frame out of header bytes it is given to append and
// payload slices it takes by reference: splice closes the header bytes
// appended since the last one into a part and puts data behind them.
type splicer struct {
	buf  []byte
	mark int
	out  parts
}

func (s *splicer) splice(data []byte) {
	if len(data) == 0 {
		return
	}
	s.out = append(s.out, s.buf[s.mark:], data)
	s.mark = len(s.buf)
}

func (s *splicer) parts() parts {
	if s.mark < len(s.buf) {
		s.out = append(s.out, s.buf[s.mark:])
	}
	return s.out
}

// request is a decoded request frame; its payload is the rest of the frame
// it was decoded from.
type request struct {
	op      byte
	id      store.ShardID
	payload []byte
}

// encodeRequest frames a request: the header it builds, then the payload
// parts as they are.
func encodeRequest(op byte, id store.ShardID, payload ...[]byte) (parts, error) {
	head, err := appendShardID([]byte{op}, id)
	if err != nil {
		return nil, err
	}
	return append(parts{head}, payload...), nil
}

// Trace ids (internal/obs). A node batch op carries its request's trace id
// in the request header's object field, which a node server does not
// otherwise read: eight bytes big-endian, or none when untraced - the form
// every earlier client sends, and every earlier server ignores. An archive
// op's header is all in use, so a traced one travels wrapped:
//
//	traced request := u8(opTraced) u16(8) id i32(0) request
//
// where request is the body the op has untraced. Pings and stats are never
// traced. An untraced request is the same bytes it always was.
const traceIDLen = 8

// traceField renders a trace id as a request's object field.
func traceField(trace uint64) string {
	return string(binary.BigEndian.AppendUint64(make([]byte, 0, traceIDLen), trace))
}

// traceOf reads the trace id a request's object field carries, 0 for none.
func traceOf(field string) uint64 {
	if len(field) != traceIDLen {
		return 0
	}
	return binary.BigEndian.Uint64([]byte(field))
}

// encodeTracedRequest frames a request of the trace ctx carries, if any.
func encodeTracedRequest(ctx context.Context, op byte, id store.ShardID, payload ...[]byte) (parts, error) {
	trace := obs.ID(ctx)
	switch {
	case trace == 0:
	case op >= opGetBatch && op <= opDeleteBatch:
		return encodeRequest(op, store.ShardID{Object: traceField(trace)}, payload...)
	case op >= opArchCreate && op <= opArchRepair:
		inner, err := encodeRequest(op, id, payload...)
		if err != nil {
			return nil, err
		}
		return encodeRequest(opTraced, store.ShardID{Object: traceField(trace)}, inner...)
	}
	return encodeRequest(op, id, payload...)
}

func decodeRequest(body []byte) (request, error) {
	if len(body) < 3 {
		return request{}, fmt.Errorf("transport: request body of %d bytes too short", len(body))
	}
	op := body[0]
	objLen := int(binary.BigEndian.Uint16(body[1:3]))
	rest := body[3:]
	if len(rest) < objLen+4 {
		return request{}, fmt.Errorf("transport: request truncated: want %d object bytes + row", objLen)
	}
	obj := string(rest[:objLen])
	row := int(int32(binary.BigEndian.Uint32(rest[objLen : objLen+4])))
	payload := rest[objLen+4:]
	return request{op: op, id: store.ShardID{Object: obj, Row: row}, payload: payload}, nil
}

func decodeResponse(body []byte) (status byte, payload []byte, err error) {
	if len(body) < 1 {
		return 0, nil, errEmptyResponse
	}
	return body[0], body[1:], nil
}

func encodeStats(s store.NodeStats) []byte {
	body := make([]byte, 0, 40)
	for _, v := range []uint64{s.Reads, s.Writes, s.Deletes, s.BytesRead, s.BytesWritten} {
		body = binary.BigEndian.AppendUint64(body, v)
	}
	return body
}

func decodeStats(body []byte) (store.NodeStats, error) {
	if len(body) != 40 {
		return store.NodeStats{}, fmt.Errorf("transport: stats payload of %d bytes, want 40", len(body))
	}
	return store.NodeStats{
		Reads:        binary.BigEndian.Uint64(body[0:8]),
		Writes:       binary.BigEndian.Uint64(body[8:16]),
		Deletes:      binary.BigEndian.Uint64(body[16:24]),
		BytesRead:    binary.BigEndian.Uint64(body[24:32]),
		BytesWritten: binary.BigEndian.Uint64(body[32:40]),
	}, nil
}

// Batch framing. A batch request travels as an ordinary request frame
// whose op is opGetBatch/opPutBatch/opDeleteBatch (the per-request
// object/row fields are unused) and whose payload is:
//
//	get batch    := u32(count) count*( u16(len(object)) object i32(row) )
//	put batch    := u32(count) count*( u16(len(object)) object i32(row) u32(len(data)) data )
//	delete batch := u32(count) count*( u16(len(object)) object i32(row) )
//
// A batch response is a logical response frame: the outer status is
// statusOK whenever the batch itself was parsed and dispatched (statusError
// reports a malformed batch, or a server that predates batching, and fails
// every shard of the frame); a response payload
// larger than one frame is split across statusPartial continuation frames
// so already-performed (and already-counted) shard reads are never thrown
// away. Per-shard outcomes travel inside the payload:
//
//	batch response := u32(count) count*( u8(status) u32(len) bytes )
//
// where bytes is the shard contents for statusOK entries of a get batch
// and an error message otherwise. count always equals the request's count.

// maxBatchShards bounds the shard count of one batch frame: enough for any
// codeword a single node can hold a row of, small enough that a forged
// count cannot force a large allocation before the length checks bite.
const maxBatchShards = 4096

var (
	errBatchTooLarge  = errors.New("transport: batch exceeds shard-count limit")
	errBatchMalformed = errors.New("transport: malformed batch frame")
)

// appendShardID appends the u16-length-prefixed object and i32 row of one
// shard ID.
func appendShardID(body []byte, id store.ShardID) ([]byte, error) {
	if len(id.Object) > 0xFFFF {
		return nil, fmt.Errorf("transport: object name of %d bytes exceeds limit", len(id.Object))
	}
	body = binary.BigEndian.AppendUint16(body, uint16(len(id.Object)))
	body = append(body, id.Object...)
	body = binary.BigEndian.AppendUint32(body, uint32(int32(id.Row)))
	return body, nil
}

// readShardID consumes one shard ID from p, returning the remainder.
func readShardID(p []byte) (store.ShardID, []byte, error) {
	if len(p) < 2 {
		return store.ShardID{}, nil, errBatchMalformed
	}
	objLen := int(binary.BigEndian.Uint16(p))
	p = p[2:]
	if len(p) < objLen+4 {
		return store.ShardID{}, nil, errBatchMalformed
	}
	obj := string(p[:objLen])
	row := int(int32(binary.BigEndian.Uint32(p[objLen : objLen+4])))
	return store.ShardID{Object: obj, Row: row}, p[objLen+4:], nil
}

// readChunk consumes a u32-length-prefixed byte chunk from p. The chunk is
// cap-clipped: it can be handed on without exposing the bytes behind it.
func readChunk(p []byte) ([]byte, []byte, error) {
	if len(p) < 4 {
		return nil, nil, errBatchMalformed
	}
	n := int(binary.BigEndian.Uint32(p))
	p = p[4:]
	if n < 0 || len(p) < n {
		return nil, nil, errBatchMalformed
	}
	return p[:n:n], p[n:], nil
}

// readBatchCount consumes and validates the leading shard count of a batch
// payload. minEntry is the smallest possible wire size of one entry, so a
// forged count can be rejected before any allocation sized by it.
func readBatchCount(p []byte, minEntry int) (int, []byte, error) {
	if len(p) < 4 {
		return 0, nil, errBatchMalformed
	}
	count := int(binary.BigEndian.Uint32(p))
	p = p[4:]
	if count < 0 || count > maxBatchShards {
		return 0, nil, errBatchTooLarge
	}
	if len(p) < count*minEntry {
		return 0, nil, errBatchMalformed
	}
	return count, p, nil
}

func encodeGetBatch(ids []store.ShardID) ([]byte, error) {
	if len(ids) > maxBatchShards {
		return nil, errBatchTooLarge
	}
	body := binary.BigEndian.AppendUint32(make([]byte, 0, 4+len(ids)*16), uint32(len(ids)))
	var err error
	for _, id := range ids {
		if body, err = appendShardID(body, id); err != nil {
			return nil, err
		}
	}
	return body, nil
}

func decodeGetBatch(payload []byte) ([]store.ShardID, error) {
	count, p, err := readBatchCount(payload, 6)
	if err != nil {
		return nil, err
	}
	ids := make([]store.ShardID, count)
	for i := range ids {
		if ids[i], p, err = readShardID(p); err != nil {
			return nil, err
		}
	}
	if len(p) != 0 {
		return nil, errBatchMalformed
	}
	return ids, nil
}

// Delete batches carry exactly the shard-ID list a get batch does; the
// aliases keep call sites honest about which op they are framing.
func encodeDeleteBatch(ids []store.ShardID) ([]byte, error) { return encodeGetBatch(ids) }
func decodeDeleteBatch(payload []byte) ([]store.ShardID, error) {
	return decodeGetBatch(payload)
}

func encodePutBatch(ids []store.ShardID, data [][]byte) (parts, error) {
	if len(ids) > maxBatchShards {
		return nil, errBatchTooLarge
	}
	if len(data) != len(ids) {
		return nil, fmt.Errorf("%w: %d ids, %d payloads", errBatchMalformed, len(ids), len(data))
	}
	size := 4
	for _, id := range ids {
		size += 2 + len(id.Object) + 4 + 4
	}
	s := splicer{buf: binary.BigEndian.AppendUint32(make([]byte, 0, size), uint32(len(ids)))}
	var err error
	for i, id := range ids {
		if s.buf, err = appendShardID(s.buf, id); err != nil {
			return nil, err
		}
		s.buf = binary.BigEndian.AppendUint32(s.buf, uint32(len(data[i])))
		s.splice(data[i])
	}
	return s.parts(), nil
}

func decodePutBatch(payload []byte) ([]store.ShardID, [][]byte, error) {
	count, p, err := readBatchCount(payload, 10)
	if err != nil {
		return nil, nil, err
	}
	ids := make([]store.ShardID, count)
	data := make([][]byte, count)
	for i := range ids {
		if ids[i], p, err = readShardID(p); err != nil {
			return nil, nil, err
		}
		if data[i], p, err = readChunk(p); err != nil {
			return nil, nil, err
		}
	}
	if len(p) != 0 {
		return nil, nil, errBatchMalformed
	}
	return ids, data, nil
}

// encodeBatchResults renders per-shard outcomes: shard data for successful
// gets, a wire error (with ShardError provenance when present) otherwise.
// Put batches pass nil Data throughout.
func encodeBatchResults(results []store.ShardResult) parts {
	s := splicer{buf: binary.BigEndian.AppendUint32(make([]byte, 0, 4+5*len(results)), uint32(len(results)))}
	for _, res := range results {
		data := res.Data
		if res.Err != nil {
			data = encodeWireError(res.Err)
		}
		s.buf = append(s.buf, statusFor(res.Err))
		s.buf = binary.BigEndian.AppendUint32(s.buf, uint32(len(data)))
		s.splice(data)
	}
	return s.parts()
}

// decodeBatchResults parses a batch response into per-shard results
// aligned with ids; the response count must match len(ids) exactly, so a
// truncated or padded response is rejected rather than misattributed.
// node and op provide the client-side provenance for error entries whose
// payload carries none. Shard data is not copied: each result is a
// cap-clipped sub-slice of payload, so appending to one cannot reach the
// next, and holding one keeps the frame it arrived in alive.
func decodeBatchResults(payload []byte, ids []store.ShardID, node, op string) ([]store.ShardResult, error) {
	count, p, err := readBatchCount(payload, 5)
	if err != nil {
		return nil, err
	}
	if count != len(ids) {
		return nil, fmt.Errorf("%w: %d results for %d shards", errBatchMalformed, count, len(ids))
	}
	results := make([]store.ShardResult, count)
	for i := range results {
		if len(p) < 1 {
			return nil, errBatchMalformed
		}
		status := p[0]
		var chunk []byte
		if chunk, p, err = readChunk(p[1:]); err != nil {
			return nil, err
		}
		if status == statusOK {
			results[i] = store.ShardResult{Data: chunk}
			continue
		}
		results[i] = store.ShardResult{Err: errorFor(status, chunk, node, op, ids[i])}
	}
	if len(p) != 0 {
		return nil, errBatchMalformed
	}
	return results, nil
}

// writeFrame writes one frame whose body is the given parts, each from
// where it lies. w is a frameWriters writer (see writeBuffered): a frame
// that fits its buffer leaves in one write when flushed, and a part larger
// than the buffer goes to the socket without being copied.
func writeFrame(w io.Writer, body ...[]byte) error {
	size := parts(body).size()
	if size > maxFrame {
		return errFrameTooLarge
	}
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(size))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return err
	}
	for _, part := range body {
		if _, err := w.Write(part); err != nil {
			return err
		}
	}
	return nil
}

// readFrame reads one frame body: into buf when it fits; a body larger than
// pool and at most maxPooledFrame into a buffer of the frame pool, which the
// frame returned holds for the caller (nil otherwise); else into a new
// slice. pool is 0, which pools nothing, or at least connBufSize. Either way
// the body belongs to the caller, who may hand out sub-slices of it instead
// of copies - of a pooled one, until its frame is released.
func readFrame(r io.Reader, buf []byte, pool int) ([]byte, *pooledFrame, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, nil, err
	}
	n := int(binary.BigEndian.Uint32(lenBuf[:]))
	if n > maxFrame {
		return nil, nil, errFrameTooLarge
	}
	var f *pooledFrame
	switch {
	case n <= cap(buf):
	case pool > 0 && n > pool && n <= maxPooledFrame:
		f = getFrame(n)
		buf = f.buf
	default:
		buf = make([]byte, n)
	}
	body := buf[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		f.release()
		return nil, nil, err
	}
	return body, f, nil
}

// statusFor maps node errors onto wire status codes.
func statusFor(err error) byte {
	switch {
	case err == nil:
		return statusOK
	case errors.Is(err, store.ErrNotFound):
		return statusNotFound
	case errors.Is(err, store.ErrNodeDown):
		return statusNodeDown
	case errors.Is(err, store.ErrCorrupt):
		return statusCorrupt
	case errors.Is(err, store.ErrBusy):
		return statusBusy
	case errors.Is(err, store.ErrConflict):
		return statusConflict
	default:
		return statusError
	}
}

// Error provenance framing. An error payload (the body of a non-OK
// response, or the bytes of a failed batch entry) is either plain message
// text (legacy peers) or a structured record carrying the server-side
// *store.ShardError provenance, marked by a magic prefix no log-style
// message starts with:
//
//	error payload := "SE1\x00" u8(len(node)) node u8(len(op)) op
//	                 u16(len(object)) object i32(row) message
//
// The client decodes the record back into a ShardError, so errors.As names
// the node and shard that actually failed even across the wire; payloads
// without the magic fall back to client-side provenance.
var wireErrMagic = []byte("SE1\x00")

// encodeWireError renders an error for the wire, embedding ShardError
// provenance when the error carries it.
func encodeWireError(err error) []byte {
	if err == nil {
		return nil
	}
	msg := err.Error()
	var se *store.ShardError
	if !errors.As(err, &se) || len(se.Node) > 0xFF || len(se.Op) > 0xFF || len(se.Shard.Object) > 0xFFFF {
		return []byte(msg)
	}
	if cause := se.Err; cause != nil {
		// The provenance fields travel structurally; the message only needs
		// the cause chain below the ShardError.
		msg = cause.Error()
	}
	body := make([]byte, 0, len(wireErrMagic)+1+len(se.Node)+1+len(se.Op)+2+len(se.Shard.Object)+4+len(msg))
	body = append(body, wireErrMagic...)
	body = append(body, byte(len(se.Node)))
	body = append(body, se.Node...)
	body = append(body, byte(len(se.Op)))
	body = append(body, se.Op...)
	body = binary.BigEndian.AppendUint16(body, uint16(len(se.Shard.Object)))
	body = append(body, se.Shard.Object...)
	body = binary.BigEndian.AppendUint32(body, uint32(int32(se.Shard.Row)))
	body = append(body, msg...)
	return body
}

// decodeWireError splits an error payload into its provenance (ok reports
// whether the payload carried one) and message text.
func decodeWireError(payload []byte) (node, op string, id store.ShardID, msg string, ok bool) {
	p, found := bytes.CutPrefix(payload, wireErrMagic)
	if !found {
		return "", "", store.ShardID{}, string(payload), false
	}
	take := func(n int) ([]byte, bool) {
		if len(p) < n {
			return nil, false
		}
		chunk := p[:n]
		p = p[n:]
		return chunk, true
	}
	lenByte, ok1 := take(1)
	if !ok1 {
		return "", "", store.ShardID{}, string(payload), false
	}
	nodeRaw, ok1 := take(int(lenByte[0]))
	if !ok1 {
		return "", "", store.ShardID{}, string(payload), false
	}
	lenByte, ok1 = take(1)
	if !ok1 {
		return "", "", store.ShardID{}, string(payload), false
	}
	opRaw, ok1 := take(int(lenByte[0]))
	if !ok1 {
		return "", "", store.ShardID{}, string(payload), false
	}
	lenWord, ok1 := take(2)
	if !ok1 {
		return "", "", store.ShardID{}, string(payload), false
	}
	objRaw, ok1 := take(int(binary.BigEndian.Uint16(lenWord)))
	if !ok1 {
		return "", "", store.ShardID{}, string(payload), false
	}
	rowRaw, ok1 := take(4)
	if !ok1 {
		return "", "", store.ShardID{}, string(payload), false
	}
	id = store.ShardID{Object: string(objRaw), Row: int(int32(binary.BigEndian.Uint32(rowRaw)))}
	return string(nodeRaw), string(opRaw), id, string(p), true
}

// errorFor maps a wire status and error payload back onto a *store.
// ShardError wrapping the matching sentinel. Provenance embedded in the
// payload wins; otherwise the client-side node ID, operation, and shard
// requested fill in.
func errorFor(status byte, payload []byte, node, op string, id store.ShardID) error {
	if status == statusOK {
		return nil
	}
	if wnode, wop, wid, msg, ok := decodeWireError(payload); ok {
		node, op, id = wnode, wop, wid
		payload = []byte(msg)
	}
	var cause error
	switch status {
	case statusNotFound:
		cause = store.ErrNotFound
	case statusNodeDown:
		cause = store.ErrNodeDown
	case statusCorrupt:
		cause = store.ErrCorrupt
	case statusBusy:
		cause = store.ErrBusy
	case statusConflict:
		cause = store.ErrConflict
	}
	switch {
	case cause == nil:
		cause = fmt.Errorf("remote: %s", payload)
	case len(payload) > 0 && string(payload) != cause.Error():
		cause = fmt.Errorf("%w: remote: %s", cause, payload)
	}
	return &store.ShardError{Node: node, Shard: id, Op: op, Err: cause}
}
