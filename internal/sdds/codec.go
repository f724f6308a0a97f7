// Package sdds is the distributed engine of the encrypted searchable
// SDDS: storage nodes hosting LH* buckets for the record-store file and
// the index file, a split coordinator, and the client operations —
// key-based Put/Get/Delete with image-based addressing, server-side
// forwarding and IAMs, plus the parallel index search that broadcasts
// encrypted query series to all nodes and combines per-site hits.
//
// Index records follow §5 of the paper: the key of an index piece is the
// RID with the chunking ID and dispersion-site ID appended as least
// significant bits, so the pieces of one record scatter over different
// LH* buckets (and therefore different nodes) as soon as the file has
// grown past 2^(slot bits) buckets.
package sdds

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/disperse"
	"repro/internal/wordindex"
)

// FileID identifies a logical SDDS file on the cluster.
type FileID uint8

const (
	// FileRecords is the record-store file (sealed records by RID).
	FileRecords FileID = 0
	// FileIndex is the searchable index file (piece streams by composite
	// key).
	FileIndex FileID = 1
	// FileWords is the optional word-index file (per-record token blobs
	// for exact whole-word search, the [SWP00] adaptation).
	FileWords FileID = 2
)

// Op codes of the node protocol.
const (
	opPut uint8 = iota + 1
	opGet
	opDelete
	opSearch
	_ // 5: retired bucket create (a split's absorb creates its own target)
	_ // 6: retired one-shot split extract
	_ // 7: retired one-shot split absorb
	opStats
	_ // 9: retired one-shot merge close
	_ // 10: retired one-shot merge absorb
	opWordSearch
	_ // 12: retired whole-node snapshot (parity sync)
	_ // 13: retired whole-node restore (parity recovery)
	opPutBatch
	opPing
	opRecoveryState
	// The two-phase migration protocol (DESIGN.md §14). Op codes are
	// persisted in node journals, so new codes append and retired ones
	// stay reserved — never renumber.
	opMigratePrepare
	opMigrateAbsorb
	opMigrateCommit
	opMigrateAbort
)

// PingOp is the exported health-probe op code: nodes answer it with an
// empty payload and no side effects, making it the natural ProbeOp for
// a transport.Detector watching sdds nodes.
const PingOp = opPing

// Recovery modes reported by opRecoveryState — how a node's local state
// came to be. The Supervisor counts only a replay of the node's own
// journal as a repair; either other mode means the node's state is lost.
// (A journal that fails verification never gets this far: the node
// refuses to start.)
const (
	// recoveryEphemeral: no durable store attached — every restart is a
	// total state loss.
	recoveryEphemeral uint8 = iota
	// recoveryFresh: durable store attached but no store files were
	// found — a new node, or one whose disk was lost.
	recoveryFresh
	// recoveryRecovered: state replayed from the local checkpoint+journal.
	recoveryRecovered
)

// recoveryStateResp reports a node's durable-recovery status: the mode
// above and the last journaled sequence number.
type recoveryStateResp struct {
	mode uint8
	seq  uint64
}

func (m recoveryStateResp) encodeTo(w *writer) {
	w.u8(m.mode)
	w.u64(m.seq)
}

func (m *recoveryStateResp) decodeFrom(r *reader) {
	m.mode, m.seq = r.u8(), r.u64()
}

// ComposeIndexKey builds the §5 composite key: RID shifted left by
// slotBits with (chunking J, site k) packed into the low bits.
func ComposeIndexKey(rid uint64, j, k, kSites int, slotBits uint) uint64 {
	slot := uint64(j*kSites + k)
	return rid<<slotBits | slot
}

// DecomposeIndexKey inverts ComposeIndexKey.
func DecomposeIndexKey(key uint64, kSites int, slotBits uint) (rid uint64, j, k int) {
	slot := key & (1<<slotBits - 1)
	rid = key >> slotBits
	j = int(slot) / kSites
	k = int(slot) % kSites
	return rid, j, k
}

// SlotBits returns the number of low bits needed for M chunkings × K
// sites (Figure 3 uses 3 bits for 2 chunkings × 4 sites).
func SlotBits(m, k int) uint {
	slots := m * k
	bits := uint(0)
	for 1<<bits < slots {
		bits++
	}
	return bits
}

// --- one codec shape ---

// message is every node-protocol payload: it appends its encoding to a
// writer. Decodable messages also have a pointer-receiver decodeFrom,
// which reads the fields back and rejects the values a node cannot serve.
type message interface{ encodeTo(w *writer) }

// encode serializes one message.
func encode(m message) []byte {
	w := &writer{}
	m.encodeTo(w)
	return w.b
}

// decode parses a whole payload as one T. A short payload, a field value
// decodeFrom rejects, or trailing bytes fail it.
func decode[T any, P interface {
	*T
	decodeFrom(*reader)
}](b []byte) (T, error) {
	// decodeFrom is called through the instantiation's dictionary, so
	// what it is handed escapes: one allocation holds both.
	d := &struct {
		r reader
		m T
	}{r: reader{b: b}}
	P(&d.m).decodeFrom(&d.r)
	return d.m, d.r.done()
}

// --- binary buffer helpers ---

type writer struct{ b []byte }

func (w *writer) u8(v uint8)   { w.b = append(w.b, v) }
func (w *writer) u16(v uint16) { w.b = binary.BigEndian.AppendUint16(w.b, v) }
func (w *writer) u32(v uint32) { w.b = binary.BigEndian.AppendUint32(w.b, v) }
func (w *writer) u64(v uint64) { w.b = binary.BigEndian.AppendUint64(w.b, v) }
func (w *writer) raw(v []byte) { w.b = append(w.b, v...) }
func (w *writer) bytes(v []byte) {
	w.u32(uint32(len(v)))
	w.b = append(w.b, v...)
}
func (w *writer) pieces(v []disperse.Piece) {
	w.u32(uint32(len(v)))
	for _, p := range v {
		w.u16(uint16(p))
	}
}

// reserveU32 appends a placeholder and returns its offset for a later
// patchU32 — used to write a count before the counted items are known,
// so batch encoders can stream entries in one pass.
func (w *writer) reserveU32() int {
	off := len(w.b)
	w.u32(0)
	return off
}

func (w *writer) patchU32(off int, v uint32) {
	binary.BigEndian.PutUint32(w.b[off:off+4], v)
}

// writerPool recycles request-encode scratch buffers on the client hot
// path. A pooled buffer may be handed to Transport.Send and released
// immediately after it returns: transports (including the Faulty
// middleware, whose duplicate deliveries are synchronous) must not
// retain request payloads past Send, and the
// node-side decoders copy every byte they keep.
var writerPool = sync.Pool{New: func() any { return new(writer) }}

func getWriter() *writer {
	w := writerPool.Get().(*writer)
	w.b = w.b[:0]
	return w
}

func putWriter(w *writer) {
	if cap(w.b) > 1<<20 {
		return // don't let one huge record pin a large buffer
	}
	writerPool.Put(w)
}

type reader struct {
	b   []byte
	off int
	err error
}

var errShortPayload = errors.New("sdds: short payload")

func (r *reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if r.off+n > len(r.b) {
		r.err = errShortPayload
		return false
	}
	return true
}

func (r *reader) u8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) u16() uint16 {
	if !r.need(2) {
		return 0
	}
	v := binary.BigEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *reader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *reader) bytes() []byte {
	n := int(r.u32())
	if !r.need(n) {
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

func (r *reader) pieces() []disperse.Piece {
	list, _ := r.appendPieces(nil)
	return list
}

// appendPieces reads a u32-counted piece list onto the end of arena. It
// returns the list, capped so that a later append to the arena cannot
// reach into it, and the grown arena.
func (r *reader) appendPieces(arena []disperse.Piece) (list, grown []disperse.Piece) {
	n := int(r.u32())
	if r.err != nil || !r.need(2*n) {
		return nil, arena
	}
	start := len(arena)
	arena = slices.Grow(arena, n)
	for i := 0; i < n; i++ {
		arena = append(arena, disperse.Piece(binary.BigEndian.Uint16(r.b[r.off:])))
		r.off += 2
	}
	return arena[start:len(arena):len(arena)], arena
}

// bound validates a decoded element count against the bytes actually
// remaining (each element needs at least elemSize bytes), so a corrupt
// count cannot drive a huge preallocation. Returns 0 on failure.
func (r *reader) bound(n uint32, elemSize int) int {
	if r.err != nil {
		return 0
	}
	if int(n)*elemSize > len(r.b)-r.off {
		r.err = errShortPayload
		return 0
	}
	return int(n)
}

// fail rejects a decoded field value; like a short read, the first
// error sticks and ends the decode.
func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("sdds: "+format, args...)
	}
}

func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("sdds: %d trailing payload bytes", len(r.b)-r.off)
	}
	return nil
}

// --- request/response payloads ---

// keyHeader addresses one key: file, bucket address (the client's image
// of it, or the forwarding node's), hop count, key. It is the whole get
// request, and the journal record of a delete and the head of a put's.
type keyHeader struct {
	file FileID
	addr uint64
	hops uint8
	key  uint64
}

func (m keyHeader) encodeTo(w *writer) {
	w.u8(uint8(m.file))
	w.u64(m.addr)
	w.u8(m.hops)
	w.u64(m.key)
}

func (m *keyHeader) decodeFrom(r *reader) {
	m.file, m.addr, m.hops, m.key = FileID(r.u8()), r.u64(), r.u8(), r.u64()
}

// putReq is a keyHeader followed by the value: the journal record of a
// put (op 1), which no node accepts on the wire any more.
type putReq struct {
	keyHeader
	value []byte
}

func (m putReq) encodeTo(w *writer) {
	m.keyHeader.encodeTo(w)
	w.bytes(m.value)
}

// decodeFrom copies the value out of the journal frame: the bucket
// retains it.
func (m *putReq) decodeFrom(r *reader) {
	m.keyHeader.decodeFrom(r)
	m.value = append([]byte(nil), r.bytes()...)
}

// keyResp answers a get and each put_batch entry: whether the key
// existed before the op, whether (put_batch only) its owner differed
// from the address the client sent, the owner's address and level (the
// IAM), and a get's value. Byte 0 packs existed and moved.
type keyResp struct {
	existed  bool
	moved    bool
	iamAddr  uint64
	iamLevel uint8
	value    []byte
}

func (m keyResp) encodeTo(w *writer) {
	var flags uint8
	if m.existed {
		flags |= 1
	}
	if m.moved {
		flags |= 2
	}
	w.u8(flags)
	w.u64(m.iamAddr)
	w.u8(m.iamLevel)
	w.bytes(m.value)
}

func (m *keyResp) decodeFrom(r *reader) {
	flags := r.u8()
	if flags > 3 {
		r.fail("key response flags %#x", flags)
	}
	m.existed, m.moved = flags&1 != 0, flags&2 != 0
	m.iamAddr, m.iamLevel = r.u64(), r.u8()
	m.value = append([]byte(nil), r.bytes()...)
}

// batchEntry is one independently addressed entry of a put_batch group:
// entries of one record scatter over many buckets, so the node re-runs
// the LH* ownership check per entry and forwards each stray to its
// owner. A delete group's entries carry no value.
type batchEntry struct {
	addr  uint64
	key   uint64
	value []byte
}

// A put_batch group's file byte: groupDelete marks a delete group, the
// groupHops bits count the forwards the group has taken (0 in every group
// a client sends), and the low bits are the file.
const (
	groupDelete   = 0x80
	groupHopShift = 5
	groupHops     = 3 << groupHopShift
)

// batchWriter streams a put_batch request (DESIGN.md §16) into a pooled
// writer as entries are routed, patching a group's count when the next
// group opens and a value's length when the next entry opens. groups keeps
// each group's tag and entry count, which the response is checked against.
type batchWriter struct {
	w        *writer
	del      bool // the open group holds deletes
	countOff int  // the open group's count
	lenOff   int  // the open put's value length
	groups   []struct{ tag, n int }
}

// entry appends an entry to the group tagged tag, first opening one of
// file's puts, or deletes, forwarded hops times, unless that is the open
// group, and returns the writer a put's value is encoded into (by the
// value's own encodeTo).
func (b *batchWriter) entry(tag int, file FileID, del bool, hops uint8, addr, key uint64) *writer {
	b.closeEntry()
	if g := len(b.groups); g == 0 || b.groups[g-1].tag != tag {
		b.closeGroup()
		fb := uint8(file) | hops<<groupHopShift
		if b.del = del; del {
			fb |= groupDelete
		}
		b.w.u8(fb)
		b.countOff = b.w.reserveU32()
		b.groups = append(b.groups, struct{ tag, n int }{tag: tag})
	}
	b.w.u64(addr)
	b.w.u64(key)
	if !del {
		b.lenOff = b.w.reserveU32()
	}
	b.groups[len(b.groups)-1].n++
	return b.w
}

func (b *batchWriter) closeEntry() {
	if len(b.groups) > 0 && !b.del {
		b.w.patchU32(b.lenOff, uint32(len(b.w.b)-b.lenOff-4))
	}
}

func (b *batchWriter) closeGroup() {
	if g := len(b.groups); g > 0 {
		b.w.patchU32(b.countOff, uint32(b.groups[g-1].n))
	}
}

// finish closes the last entry and group and returns the request.
func (b *batchWriter) finish() []byte {
	b.closeEntry()
	b.closeGroup()
	return b.w.b
}

// readAnswer reads the answer to the put_batch b wrote — per group its
// entry count, then one keyResp per entry — and hands each entry's
// response, with its group's tag, to fn in request order.
func (b *batchWriter) readAnswer(resp []byte, fn func(tag int, pr keyResp)) error {
	rd := reader{b: resp}
	for _, g := range b.groups {
		if n := rd.bound(rd.u32(), 14); rd.err == nil && n != g.n {
			return fmt.Errorf("sdds: batch response group has %d entries, want %d", n, g.n)
		}
		for i := 0; i < g.n && rd.err == nil; i++ {
			var pr keyResp
			if pr.decodeFrom(&rd); rd.err == nil {
				fn(g.tag, pr)
			}
		}
	}
	return rd.done()
}

// batchGroup is one decoded put_batch group: one file's puts, or its
// deletes, after hops forwards.
type batchGroup struct {
	file    FileID
	del     bool
	hops    uint8
	entries []batchEntry
}

// journalFrame encodes entry e of the group as the record a node
// journals for it: a put (op 1) or a delete (op 3) at the resolved
// address addr, hops 0, so replay applies it without re-running the
// forwarding computation.
func (g *batchGroup) journalFrame(e batchEntry, addr uint64) (uint8, []byte) {
	h := keyHeader{file: g.file, addr: addr, key: e.key}
	if g.del {
		return opDelete, encode(h)
	}
	return opPut, encode(putReq{h, e.value})
}

// putBatchReq is a decoded put_batch request. Values are BORROWED from
// the transport's request buffer: the handler must copy any byte it
// stores (bucket storage retains values, and the buffer may be pooled),
// but entries it only forwards or journals can use the borrowed bytes in
// place. valBytes sums the value lengths, so the handler can pack all
// copies into one exact backing.
type putBatchReq struct {
	groups   []batchGroup
	n        int // entries over all groups
	valBytes int
}

// decodeFrom rejects a request with no group, a group of an unknown file,
// a group forwarded maxHops times or more, and an empty group; a cut-off
// group fails as a short payload.
func (m *putBatchReq) decodeFrom(r *reader) {
	for r.err == nil {
		fb := r.u8()
		g := batchGroup{
			file: FileID(fb &^ (groupDelete | groupHops)),
			del:  fb&groupDelete != 0,
			hops: (fb & groupHops) >> groupHopShift,
		}
		if g.file > FileWords {
			r.fail("put_batch group of unknown file %d", g.file)
		}
		if g.hops >= maxHops {
			r.fail("put_batch group forwarded %d times, past the %d-forward bound", g.hops, maxHops-1)
		}
		n := r.bound(r.u32(), 16) // every entry has at least addr and key
		if n == 0 {
			r.fail("empty put_batch group")
		}
		g.entries = make([]batchEntry, n)
		for i := range g.entries {
			e := &g.entries[i]
			e.addr, e.key = r.u64(), r.u64()
			if !g.del {
				e.value = r.bytes() // borrowed — copy before retaining
				m.valBytes += len(e.value)
			}
		}
		m.groups = append(m.groups, g)
		m.n += n
		if r.off == len(r.b) {
			return
		}
	}
}

// answerSize is one put_batch entry's answer: a keyResp with no value.
// A put_batch is answered, per group, with its entry count and then one
// such keyResp per entry in request order (batchWriter.readAnswer), so a
// node can reserve a stray's answer and set it once the owner answers.
const answerSize = 14

// setAnswer writes r, without a value, as the entry answer b starts with.
func setAnswer(b []byte, r keyResp) {
	r.value = nil
	r.encodeTo(&writer{b: b[:0]})
}

// indexValue is the stored value of one index piece: the first chunk
// index (after DropPartial trimming) and the piece stream.
type indexValue struct {
	firstIndex uint32
	pieces     []disperse.Piece
}

func (m indexValue) encodeTo(w *writer) {
	w.u32(m.firstIndex)
	w.pieces(m.pieces)
}

func (m *indexValue) decodeFrom(r *reader) {
	m.firstIndex, m.pieces = r.u32(), r.pieces()
}

// indexValuePieceCount peeks the piece count of an encoded indexValue
// without decoding it. ok is false for anything that would not decode
// cleanly (foreign values stored in the index file), so batch decoders
// can pre-size an exact piece arena: the encoding is fixed-width —
// 4 bytes firstIndex, 4 bytes count, 2 bytes per piece — and a value
// is valid iff its length matches the count exactly.
func indexValuePieceCount(b []byte) (int, bool) {
	if len(b) < 8 {
		return 0, false
	}
	n := int(binary.BigEndian.Uint32(b[4:8]))
	if 8+2*n != len(b) {
		return 0, false
	}
	return n, true
}

// decodeIndexValueInto decodes like decode[indexValue] but appends the
// piece stream to arena instead of allocating, returning the grown
// arena. The caller must pre-size arena (via indexValuePieceCount sums)
// so it never reallocates — the returned iv.pieces is a full-capacity
// carve of the appended region and must not move. A value whose peek
// fails also fails here, so arena stays exactly sized.
func decodeIndexValueInto(b []byte, arena []disperse.Piece) (indexValue, []disperse.Piece, error) {
	n, ok := indexValuePieceCount(b)
	if !ok {
		return indexValue{}, arena, errShortPayload
	}
	start := len(arena)
	for i := 0; i < n; i++ {
		arena = append(arena, disperse.Piece(binary.BigEndian.Uint16(b[8+2*i:])))
	}
	iv := indexValue{
		firstIndex: binary.BigEndian.Uint32(b[:4]),
		pieces:     arena[start:len(arena):len(arena)],
	}
	return iv, arena, nil
}

// searchReq carries a compiled query to every node: for each series, the
// alignment and the per-site patterns. slotBits is the composite-key
// slot width (SlotBits(M, K)), which nodes need to decompose entry keys.
type searchReq struct {
	file     FileID
	kSites   uint8
	slotBits uint8
	series   []searchSeries
}

type searchSeries struct {
	a        uint16
	patterns [][]disperse.Piece // indexed by site k
}

func (m searchReq) encodeTo(w *writer) {
	w.u8(uint8(m.file))
	w.u8(m.kSites)
	w.u8(m.slotBits)
	w.u16(uint16(len(m.series)))
	for _, s := range m.series {
		w.u16(s.a)
		w.u8(uint8(len(s.patterns)))
		for _, p := range s.patterns {
			w.pieces(p)
		}
	}
}

// decodeFrom rejects what DecomposeIndexKey cannot apply: it divides by
// kSites, and a slot of 64 bits or more yields negative site indexes.
func (m *searchReq) decodeFrom(r *reader) {
	m.file, m.kSites, m.slotBits = FileID(r.u8()), r.u8(), r.u8()
	if m.kSites == 0 || m.slotBits >= 64 {
		r.fail("search with %d sites and %d slot bits", m.kSites, m.slotBits)
	}
	// Every count is checked against the bytes left before anything is
	// sized from it (a series takes at least 3 bytes, a pattern 4), and
	// every pattern's pieces go into one arena: a piece takes 2 bytes, so
	// half the bytes left is room for them all.
	n := r.bound(uint32(r.u16()), 3)
	m.series = make([]searchSeries, n)
	arena := make([]disperse.Piece, 0, (len(r.b)-r.off)/2)
	for i := 0; i < n && r.err == nil; i++ {
		s := &m.series[i]
		s.a = r.u16()
		s.patterns = make([][]disperse.Piece, r.bound(uint32(r.u8()), 4))
		for p := 0; p < len(s.patterns) && r.err == nil; p++ {
			s.patterns[p], arena = r.appendPieces(arena)
		}
	}
}

// rawHit is one node-side match: entry (rid, j, k) matched series a at
// pieceOffset within a stream whose stored firstIndex is given. The
// client converts piece offsets to chunk indexes (it knows the
// pieces-per-chunk factor; nodes don't need to).
type rawHit struct {
	rid         uint64
	j           uint8
	k           uint8
	a           uint16
	firstIndex  uint32
	pieceOffset uint32
}

// hitWireSize is one rawHit's encoded size.
const hitWireSize = 20

// searchResp is a node's search answer: a u32 hit count, then each hit
// as rid u64, j u8, k u8, a u16, firstIndex u32, pieceOffset u32. The
// client reads it straight from the wire in combineHits, so its
// decodeFrom lives with the tests.
type searchResp struct {
	hits []rawHit
}

func (m searchResp) encodeTo(w *writer) {
	w.u32(uint32(len(m.hits)))
	for _, h := range m.hits {
		w.u64(h.rid)
		w.u8(h.j)
		w.u8(h.k)
		w.u16(h.a)
		w.u32(h.firstIndex)
		w.u32(h.pieceOffset)
	}
}

// recordBatch carries the records a migration moves between buckets.
type recordBatch struct {
	records []kv
}

type kv struct {
	key   uint64
	value []byte
}

func (m recordBatch) encodeTo(w *writer) {
	w.u32(uint32(len(m.records)))
	for _, r := range m.records {
		w.u64(r.key)
		w.bytes(r.value)
	}
}

// decodeFrom copies every value out of the request buffer: the target
// bucket retains them.
func (m *recordBatch) decodeFrom(r *reader) {
	n := int(r.u32())
	for i := 0; i < n && r.err == nil; i++ {
		key := r.u64()
		val := append([]byte(nil), r.bytes()...)
		m.records = append(m.records, kv{key: key, value: val})
	}
}

// migrateHeader is the addressing block shared by every migration op:
// the coordinator-assigned migration ID plus the coordinator's view of
// the move — kind, file, source bucket, target bucket, and the expected
// level of the source bucket. Nodes validate the whole header against
// their local state and reject mismatches loudly instead of recomputing
// destinations locally.
type migrateHeader struct {
	mid   uint64
	kind  uint8 // migrateSplit or migrateMerge
	file  FileID
	from  uint64 // bucket records leave (split: splitting; merge: closing)
	to    uint64 // bucket records arrive at (split: new; merge: surviving)
	level uint8  // expected level of the source bucket
}

func (m migrateHeader) encodeTo(w *writer) {
	w.u64(m.mid)
	w.u8(m.kind)
	w.u8(uint8(m.file))
	w.u64(m.from)
	w.u64(m.to)
	w.u8(m.level)
}

// decodeFrom rejects a level that would create or check a bucket at level
// 64 or above (a split's target is one up): key mod 2^64 has no address.
func (m *migrateHeader) decodeFrom(r *reader) {
	m.mid = r.u64()
	m.kind = r.u8()
	m.file = FileID(r.u8())
	m.from = r.u64()
	m.to = r.u64()
	m.level = r.u8()
	top := int(m.level)
	if m.kind == migrateSplit {
		top++
	}
	if top >= 64 {
		r.fail("migration %d: level %d takes a bucket past level 63", m.mid, m.level)
	}
}

// migratePrepareResp reports the source's migration status for the ID —
// freshly prepared or re-prepared (ok, batch attached), or the durable
// outcome of an already-finished migration (committed / aborted, no
// batch). The latter is what lets a restarted coordinator resume.
type migratePrepareResp struct {
	status uint8 // migrateStatusOK / Committed / Aborted
	batch  recordBatch
}

func (m migratePrepareResp) encodeTo(w *writer) {
	w.u8(m.status)
	m.batch.encodeTo(w)
}

// migrateAbsorbReq durably lands the moved records on the target node,
// keyed by migration ID (idempotent on retry).
type migrateAbsorbReq struct {
	migrateHeader
	batch recordBatch
}

func (m migrateAbsorbReq) encodeTo(w *writer) {
	m.migrateHeader.encodeTo(w)
	m.batch.encodeTo(w)
}

func (m *migrateAbsorbReq) decodeFrom(r *reader) {
	m.migrateHeader.decodeFrom(r)
	m.batch.decodeFrom(r)
}

// migrateFinishReq closes a migration on either participant: commit
// makes the handoff final (source drops the outgoing set; target keeps
// the absorbed records), abort undoes it (source keeps everything;
// target discards what it absorbed). Both are idempotent on the ID.
type migrateFinishReq struct {
	mid uint64
}

func (m migrateFinishReq) encodeTo(w *writer) { w.u64(m.mid) }

func (m *migrateFinishReq) decodeFrom(r *reader) { m.mid = r.u64() }

// statsResp reports a node's bucket inventory for one file.
type statsResp struct {
	buckets []bucketStat
}

type bucketStat struct {
	addr  uint64
	level uint8
	size  uint32
}

func (m statsResp) encodeTo(w *writer) {
	w.u32(uint32(len(m.buckets)))
	for _, b := range m.buckets {
		w.u64(b.addr)
		w.u8(b.level)
		w.u32(b.size)
	}
}

func (m *statsResp) decodeFrom(r *reader) {
	n := int(r.u32())
	for i := 0; i < n && r.err == nil; i++ {
		m.buckets = append(m.buckets, bucketStat{
			addr:  r.u64(),
			level: r.u8(),
			size:  r.u32(),
		})
	}
}

// wordSearchReq broadcasts one word token to every node.
type wordSearchReq struct {
	file  FileID
	token []byte
}

func (m wordSearchReq) encodeTo(w *writer) {
	w.u8(uint8(m.file))
	w.bytes(m.token)
}

func (m *wordSearchReq) decodeFrom(r *reader) {
	m.file = FileID(r.u8())
	m.token = append([]byte(nil), r.bytes()...)
	if len(m.token) != wordindex.TokenSize {
		r.fail("word token length %d, want %d", len(m.token), wordindex.TokenSize)
	}
}

// wordSearchResp lists the RIDs whose blobs contain the token.
type wordSearchResp struct {
	rids []uint64
}

func (m wordSearchResp) encodeTo(w *writer) {
	w.u32(uint32(len(m.rids)))
	for _, r := range m.rids {
		w.u64(r)
	}
}

func (m *wordSearchResp) decodeFrom(r *reader) {
	n := int(r.u32())
	for i := 0; i < n && r.err == nil; i++ {
		m.rids = append(m.rids, r.u64())
	}
}

// nodeImage is a node's full serialized bucket inventory across all
// files — the body of a WAL checkpoint. The encoding is deterministic
// (files by ID, buckets by address), so byte-identical logical state
// yields byte-identical images, which is what the crash tests compare.
type nodeImage struct {
	files []fileImage
	migs  migrationImage
}

type fileImage struct {
	file    FileID
	buckets [][]byte // lhstar bucket snapshots, sorted by address
}

// migImageMarker introduces the optional migration-state section that
// follows the files section. It must be non-zero: images predating the
// section end in zero padding, and decodeNodeImage distinguishes the
// two by this byte.
const migImageMarker uint8 = 0x4D

// migrationImage is a node's in-flight two-phase migration state as it
// rides inside the node image: outgoing sets (source side), absorbed
// sets (target side), and the durable outcomes of finished migrations.
// All slices are sorted by migration ID for deterministic encoding.
type migrationImage struct {
	outgoing []migRecord
	absorbed []migRecord
	done     []migDone
}

func (m migrationImage) empty() bool {
	return len(m.outgoing) == 0 && len(m.absorbed) == 0 && len(m.done) == 0
}

func encodeMigRecords(w *writer, recs []migRecord) {
	w.u32(uint32(len(recs)))
	for _, rec := range recs {
		rec.migrateHeader.encodeTo(w)
		w.u32(uint32(len(rec.keys)))
		for _, k := range rec.keys {
			w.u64(k)
		}
	}
}

func decodeMigRecords(r *reader) []migRecord {
	n := int(r.u32())
	var out []migRecord
	for i := 0; i < n && r.err == nil; i++ {
		var rec migRecord
		rec.migrateHeader.decodeFrom(r)
		nk := r.bound(r.u32(), 8)
		for j := 0; j < nk && r.err == nil; j++ {
			rec.keys = append(rec.keys, r.u64())
		}
		out = append(out, rec)
	}
	return out
}

func (m nodeImage) encodeTo(w *writer) {
	w.u32(uint32(len(m.files)))
	for _, f := range m.files {
		w.u8(uint8(f.file))
		w.u32(uint32(len(f.buckets)))
		for _, b := range f.buckets {
			w.bytes(b)
		}
	}
	if !m.migs.empty() {
		w.u8(migImageMarker)
		w.u8(1) // section version
		encodeMigRecords(w, m.migs.outgoing)
		encodeMigRecords(w, m.migs.absorbed)
		w.u32(uint32(len(m.migs.done)))
		for _, d := range m.migs.done {
			w.u64(d.mid)
			w.u8(d.outcome)
		}
	}
}

// decodeNodeImage decodes a node image, tolerating trailing zero bytes:
// earlier versions restored nodes from zero-padded parity shards and
// checkpointed the padded image, and those checkpoints must still load.
func decodeNodeImage(b []byte) (nodeImage, error) {
	r := &reader{b: b}
	nf := int(r.u32())
	m := nodeImage{}
	for i := 0; i < nf && r.err == nil; i++ {
		f := fileImage{file: FileID(r.u8())}
		nb := int(r.u32())
		for j := 0; j < nb && r.err == nil; j++ {
			f.buckets = append(f.buckets, append([]byte(nil), r.bytes()...))
		}
		m.files = append(m.files, f)
	}
	if r.err == nil && r.off < len(r.b) && r.b[r.off] == migImageMarker {
		r.u8() // marker
		if v := r.u8(); r.err == nil && v != 1 {
			return m, fmt.Errorf("sdds: unknown migration image section version %d", v)
		}
		m.migs.outgoing = decodeMigRecords(r)
		m.migs.absorbed = decodeMigRecords(r)
		nd := r.bound(r.u32(), 9)
		for i := 0; i < nd && r.err == nil; i++ {
			m.migs.done = append(m.migs.done, migDone{mid: r.u64(), outcome: r.u8()})
		}
	}
	if r.err != nil {
		return m, r.err
	}
	for _, x := range r.b[r.off:] {
		if x != 0 {
			return m, fmt.Errorf("sdds: %d trailing payload bytes", len(r.b)-r.off)
		}
	}
	return m, nil
}

// queryToSearchReq converts a compiled core.Query to the wire form.
func queryToSearchReq(file FileID, q *core.Query, m0, kSites int) searchReq {
	m := searchReq{file: file, kSites: uint8(kSites), slotBits: uint8(SlotBits(m0, kSites))}
	for _, s := range q.Series {
		m.series = append(m.series, searchSeries{
			a:        uint16(s.A),
			patterns: s.Patterns,
		})
	}
	return m
}
