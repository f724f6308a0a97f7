package sdds

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/transport"
	"repro/internal/wal"
)

// durableHarness pairs a store-backed node with an ephemeral reference
// node receiving the same operations — the in-memory truth the crash
// matrix checks replay against.
type durableHarness struct {
	t     *testing.T
	fs    *wal.MemFS
	place *Placement

	live *Node
	ref  *Node

	// inflight is the operation whose acknowledgment the crash
	// swallowed: the one request allowed to be present-or-absent in the
	// replayed state (anything else is silent loss or invention).
	inflight *struct {
		op      uint8
		payload []byte
	}
	// mig is the migration the workload is in the middle of (nil between
	// migrations): what a coordinator's journal would tell it to re-drive
	// after a crash.
	mig *migrateHeader
	// strays counts the acknowledged puts whose owner was not the bucket
	// they were sent to: the node followed each to its bucket itself.
	strays int
}

func newDurableHarness(t *testing.T, fs *wal.MemFS) *durableHarness {
	t.Helper()
	place, err := NewPlacement([]transport.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	h := &durableHarness{t: t, fs: fs, place: place}

	// One node holds every bucket, so it never forwards: no peers.
	h.live = NewNode(0, nil, place)
	st, err := wal.Open(fs, "node", wal.Options{CheckpointBytes: 600})
	if err != nil {
		t.Fatalf("opening store: %v", err)
	}
	if out, err := h.live.AttachStore(st); err != nil || out != wal.OutcomeFresh {
		t.Fatalf("AttachStore on fresh fs = %v, %v", out, err)
	}
	h.ref = NewNode(0, nil, place)
	return h
}

// do applies one operation to the durable node and mirrors it onto the
// reference on success. It reports false once the injected crash fires
// (recording the in-flight op); any other failure is fatal.
func (h *durableHarness) do(op uint8, payload []byte) ([]byte, bool) {
	h.t.Helper()
	resp, err := h.live.Handler()(context.Background(), op, payload)
	if err != nil {
		if !h.fs.Crashed() {
			h.t.Fatalf("op %d failed without a crash: %v", op, err)
		}
		h.inflight = &struct {
			op      uint8
			payload []byte
		}{op, append([]byte(nil), payload...)}
		return nil, false
	}
	if _, err := h.ref.Handler()(context.Background(), op, payload); err != nil {
		h.t.Fatalf("reference node rejected op %d: %v", op, err)
	}
	return resp, true
}

func recVal(i int) []byte {
	return []byte(fmt.Sprintf("record-%04d body padding to exercise checkpoints", i))
}

// sendTo is do without the mirroring or the crash: a plain send to one
// node that must succeed.
func (h *durableHarness) sendTo(n *Node) func(op uint8, payload []byte) ([]byte, bool) {
	return func(op uint8, payload []byte) ([]byte, bool) {
		h.t.Helper()
		resp, err := n.Handler()(context.Background(), op, payload)
		if err != nil {
			h.t.Fatalf("op %d on node: %v", op, err)
		}
		return resp, true
	}
}

// drive runs one two-phase migration through send — prepare, absorb,
// commit, the sequence Cluster.driveMigrationLocked sends. Both buckets
// live on the harness's single node, so one commit settles both roles.
// Every step is idempotent on the migration ID: driving an ID again
// after a crash rolls the interrupted handoff forward. It reports false
// when send did.
func (h *durableHarness) drive(hdr migrateHeader, send func(op uint8, payload []byte) ([]byte, bool)) bool {
	h.t.Helper()
	raw, ok := send(opMigratePrepare, encode(hdr))
	if !ok {
		return false
	}
	// Like the coordinator, relay the batch bytes behind the status byte.
	if len(raw) == 0 {
		h.t.Fatalf("migration %d: empty prepare response", hdr.mid)
	}
	switch raw[0] {
	case migrateStatusCommitted:
		return true
	case migrateStatusOK:
	default:
		h.t.Fatalf("migration %d: prepare status %d", hdr.mid, raw[0])
	}
	absorb := &writer{}
	hdr.encodeTo(absorb)
	absorb.b = append(absorb.b, raw[1:]...)
	if _, ok := send(opMigrateAbsorb, absorb.b); !ok {
		return false
	}
	_, ok = send(opMigrateCommit, encode(migrateFinishReq{mid: hdr.mid}))
	return ok
}

// workload drives a fixed mutation script — one-entry puts (into two
// files) and deletes, two splits, one merge, one mixed put_batch —
// through every journaled handler. Every put and delete is sent to
// bucket 0, so once bucket 0 has split, the keys it no longer owns are
// strays the node follows to their bucket before it journals them.
// It reports false when the injected crash cut it short, leaving h.mig
// set if that happened inside a migration.
func (h *durableHarness) workload() bool {
	put := func(key uint64, i int) bool {
		resp, ok := h.do(opPutBatch, batchReq(FileRecords, batchEntry{key: key, value: recVal(i)}))
		if ok {
			// One group of one entry: its count, then its keyResp.
			rd := reader{b: resp[4:]}
			var pr keyResp
			if pr.decodeFrom(&rd); rd.done() != nil {
				h.t.Fatalf("put %d: answer %x", key, resp)
			}
			if pr.moved {
				h.strays++
			}
		}
		return ok
	}
	del := func(key uint64) bool {
		_, ok := h.do(opPutBatch, groupsReq(batchGroup{file: FileRecords, del: true, entries: []batchEntry{{key: key}}}))
		return ok
	}
	migrate := func(hdr migrateHeader) bool {
		hdr.file = FileRecords
		h.mig = &hdr
		if !h.drive(hdr, h.do) {
			return false
		}
		h.mig = nil
		return true
	}

	for i := 1; i <= 10; i++ {
		if !put(uint64(i), i) {
			return false
		}
	}
	// One mutation of a second file, which the migrations below leave
	// alone: replay must keep the files apart.
	if _, ok := h.do(opPutBatch, batchReq(FileWords, batchEntry{key: 1, value: recVal(0)})); !ok {
		return false
	}
	// bucket 0 (level 0→1) spills into bucket 1
	if !migrate(migrateHeader{mid: 1, kind: migrateSplit, from: 0, to: 1, level: 0}) {
		return false
	}
	for i := 11; i <= 16; i++ {
		if !put(uint64(i), i) {
			return false
		}
	}
	for _, k := range []uint64{2, 11, 7} {
		if !del(k) {
			return false
		}
	}
	// bucket 0 (level 1→2) spills into bucket 2
	if !migrate(migrateHeader{mid: 2, kind: migrateSplit, from: 0, to: 2, level: 1}) {
		return false
	}
	for i := 17; i <= 20; i++ {
		if !put(uint64(i), i) {
			return false
		}
	}
	// undo the second split: bucket 2 closes into bucket 0
	if !migrate(migrateHeader{mid: 3, kind: migrateMerge, from: 2, to: 0, level: 2}) {
		return false
	}
	for i := 21; i <= 23; i++ {
		if !put(uint64(i), i) {
			return false
		}
	}
	// One put_batch of put and delete groups over both files: its entries
	// are journaled frame by frame ahead of one flush, so a crash can
	// leave any prefix of them. Buckets 0 and 1 are at level 1 again.
	_, ok := h.do(opPutBatch, groupsReq(
		batchGroup{file: FileRecords, entries: []batchEntry{{addr: 0, key: 24, value: recVal(24)}, {addr: 1, key: 25, value: recVal(25)}}},
		batchGroup{file: FileRecords, del: true, entries: []batchEntry{{addr: 1, key: 3}, {addr: 0, key: 4}}},
		batchGroup{file: FileWords, entries: []batchEntry{{addr: 0, key: 2, value: recVal(2)}}},
	))
	if !ok {
		return false
	}
	// Three more puts, one of them a stray, so the script spans at least
	// the 102 crash points the matrix names (op001 to op102).
	for i := 26; i <= 28; i++ {
		if !put(uint64(i), i) {
			return false
		}
	}
	return true
}

// inflightMatches reports whether got, a replayed snapshot, is the acked
// state plus what the crash may have kept of the in-flight op: the whole
// op or, for a put_batch, any prefix of its entries. A single op is
// applied to the reference itself, which a re-driven migration then
// continues from.
func (h *durableHarness) inflightMatches(got []byte) bool {
	h.t.Helper()
	ctx := context.Background()
	if h.inflight.op != opPutBatch {
		if _, err := h.ref.Handler()(ctx, h.inflight.op, h.inflight.payload); err != nil {
			h.t.Fatalf("applying in-flight op %d to reference: %v", h.inflight.op, err)
		}
		return bytes.Equal(got, h.snapshot(h.ref))
	}
	req, err := decode[putBatchReq](h.inflight.payload)
	if err != nil {
		h.t.Fatal(err)
	}
	acked := h.snapshot(h.ref)
	for n := 1; n <= req.n; n++ {
		var prefix []batchGroup
		for left, gi := n, 0; left > 0; gi++ {
			g := req.groups[gi]
			g.entries = g.entries[:min(left, len(g.entries))]
			prefix = append(prefix, g)
			left -= len(g.entries)
		}
		scratch := NewNode(0, nil, h.place)
		if err := attachCheckpoint(h.t, scratch, acked); err != nil {
			h.t.Fatalf("copying the reference: %v", err)
		}
		if _, err := scratch.Handler()(ctx, opPutBatch, groupsReq(prefix...)); err != nil {
			h.t.Fatalf("applying %d in-flight entries to a copy of the reference: %v", n, err)
		}
		if bytes.Equal(got, h.snapshot(scratch)) {
			return true
		}
	}
	return false
}

func (h *durableHarness) snapshot(n *Node) []byte { return imageOf(n) }

// imageOf is a node's checkpoint image, taken under its lock.
func imageOf(n *Node) []byte {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.snapshotLocked()
}

// attachCheckpoint takes n through the checkpoint path a restarted node
// takes: img is checkpointed into a new MemFS store, and the reopened
// store is attached to n, replacing n's whole state. It returns
// AttachStore's error.
func attachCheckpoint(t testing.TB, n *Node, img []byte) error {
	t.Helper()
	fs := wal.NewMemFS()
	st, err := wal.Open(fs, "node", wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(img); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = wal.Open(fs, "node", wal.Options{}); err != nil {
		t.Fatal(err)
	}
	_, err = n.AttachStore(st)
	return err
}

// restart reopens the durable state after a crash (or abort) into a
// fresh node, as a restarted process would.
func (h *durableHarness) restart() (*Node, wal.Outcome, error) {
	h.t.Helper()
	h.fs.Restart()
	st, err := wal.Open(h.fs, "node", wal.Options{CheckpointBytes: 600})
	if err != nil {
		h.t.Fatalf("reopening store: %v", err)
	}
	n := NewNode(0, nil, h.place)
	out, aerr := n.AttachStore(st)
	return n, out, aerr
}

// putAndRecoverAgain proves a node recovered from a crash keeps
// journaling soundly: it acknowledges one more put, is killed, and the
// second recovery must be clean and hold that put. (A journal the first
// recovery left inconsistent only shows once something is appended to it
// and read back.)
func putAndRecoverAgain(t *testing.T, fs *wal.MemFS, node *Node) {
	t.Helper()
	const key = 1 << 40 // no workload touches it
	ctx := context.Background()
	if _, err := node.Handler()(ctx, opPutBatch, batchReq(FileRecords, batchEntry{key: key, value: []byte("post-crash")})); err != nil {
		t.Fatalf("put after recovery: %v", err)
	}
	node.store.(*wal.Store).Abort()
	fs.Restart()
	st, err := wal.Open(fs, "node", wal.Options{CheckpointBytes: 600})
	if err != nil {
		t.Fatalf("reopening store: %v", err)
	}
	place, _ := NewPlacement([]transport.NodeID{0})
	again := NewNode(0, nil, place)
	if out, err := again.AttachStore(st); err != nil || out != wal.OutcomeRecovered {
		t.Fatalf("second recovery = %v, %v", out, err)
	}
	raw, err := again.Handler()(ctx, opGet, encode(keyHeader{file: FileRecords, key: key}))
	if err != nil {
		t.Fatalf("get after second recovery: %v", err)
	}
	if v, err := decode[keyResp](raw); err != nil || string(v.value) != "post-crash" {
		t.Fatalf("put acknowledged after the first recovery = %+v, %v after the second", v, err)
	}
}

// TestNodeCrashMatrix is the node-level half of the fault matrix: the
// full mutation workload (puts, deletes, two-phase splits and merges,
// checkpoint churn) is killed at every filesystem operation in every
// tear mode, and the restarted node's replayed state must be
// byte-equivalent to the in-memory reference — allowing only for the
// single in-flight operation whose acknowledgment the crash swallowed.
// A migration the crash interrupted is then re-driven to commit on both
// and compared again. A corrupt verdict for a pure crash, a lost
// acknowledged mutation, or an invented one all fail: zero silent data
// loss. The matrix runs on both journal layouts MemFS models: append,
// and the zero tail OSFS writes on Linux (subtests prefixed zerotail/).
func TestNodeCrashMatrix(t *testing.T) {
	nodeCrashMatrix(t, "", wal.NewMemFS)
	nodeCrashMatrix(t, "zerotail/", wal.NewZeroTailMemFS)
}

func nodeCrashMatrix(t *testing.T, prefix string, newFS func() *wal.MemFS) {
	// Dry run: count the workload's crash points.
	probe := newFS()
	dry := newDurableHarness(t, probe)
	probe.SetCrash(0, wal.CrashDrop) // reset the op counter, stay disarmed
	if !dry.workload() {
		t.Fatal("dry run crashed")
	}
	totalOps := probe.Ops()
	if totalOps < 102 {
		t.Fatalf("workload too small for the matrix: %d fs ops, want at least 102", totalOps)
	}
	if dry.strays == 0 {
		t.Fatal("the workload journals no stray: no put was sent to a bucket that no longer owns it")
	}

	stride := 1
	if testing.Short() {
		stride = 7
	}
	for _, mode := range []wal.CrashMode{wal.CrashDrop, wal.CrashKeep, wal.CrashTorn} {
		for at := 1; at <= totalOps; at += stride {
			t.Run(fmt.Sprintf("%s%s/op%03d", prefix, mode, at), func(t *testing.T) {
				fs := newFS()
				h := newDurableHarness(t, fs)
				fs.SetCrash(at, mode)
				if h.workload() {
					t.Fatalf("crash point %d never fired", at)
				}

				node, out, err := h.restart()
				if out == wal.OutcomeCorrupt {
					t.Fatalf("a crash (not corruption) produced a corrupt verdict: %v", err)
				}
				if err != nil {
					t.Fatalf("restart recovery: %v", err)
				}
				got := h.snapshot(node)
				want := h.snapshot(h.ref)
				if !bytes.Equal(got, want) {
					// Not the acked state: the only other legal outcome is
					// acked + the in-flight op, or a put_batch prefix of it
					// (journaled durably in the same instant the crash
					// killed its acknowledgment).
					if h.inflight == nil {
						t.Fatal("replayed state diverges from reference with no op in flight")
					}
					if !h.inflightMatches(got) {
						t.Fatalf("replayed state matches neither acked nor acked+inflight (op %d at fs op %d)",
							h.inflight.op, at)
					}
				}
				// A crash inside a split or merge leaves its buckets frozen
				// until the coordinator re-drives the migration ID. Do that
				// on both nodes: the handoff must complete from whatever
				// prefix of it survived, with every record accounted for.
				if h.mig != nil {
					h.drive(*h.mig, h.sendTo(node))
					h.drive(*h.mig, h.sendTo(h.ref))
					if !bytes.Equal(h.snapshot(node), h.snapshot(h.ref)) {
						t.Fatalf("migration %d rolled forward after the crash at fs op %d diverges from reference", h.mig.mid, at)
					}
				}
				putAndRecoverAgain(t, fs, node)
			})
		}
	}
}

// TestNodeBitFlipDetectedAndKept covers the media-corruption row of the
// matrix: a flipped bit in the durable checkpoint must surface as a
// deterministic corrupt verdict wrapping wal.ErrCorrupt (never a silent
// partial replay, never an empty node), and the refusal must leave the
// checkpoint byte-identical so every later restart — or a salvage tool —
// sees exactly what the first one did.
func TestNodeBitFlipDetectedAndKept(t *testing.T) {
	fs := wal.NewMemFS()
	h := newDurableHarness(t, fs)
	if !h.workload() {
		t.Fatal("workload crashed without injection")
	}
	if err := h.live.CloseStore(); err != nil {
		t.Fatalf("CloseStore: %v", err)
	}
	// CloseStore checkpointed, so the checkpoint holds the whole state.
	if sz, err := fs.Size("node/checkpoint"); err != nil || sz < 64 {
		t.Fatalf("checkpoint missing after CloseStore: %d, %v", sz, err)
	}
	if err := fs.FlipBit("node/checkpoint", 40, 2); err != nil {
		t.Fatal(err)
	}
	flipped, err := fs.ReadFile("node/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		_, out, err := h.restart()
		if out != wal.OutcomeCorrupt || !errors.Is(err, wal.ErrCorrupt) {
			t.Fatalf("restart %d on a flipped checkpoint bit = %v, %v; want detected corruption", i, out, err)
		}
		if got, err := fs.ReadFile("node/checkpoint"); err != nil || !bytes.Equal(got, flipped) {
			t.Fatalf("restart %d changed the corrupt checkpoint (err %v)", i, err)
		}
	}
}

// TestNodeRestartAfterGracefulClose: CloseStore → reopen must replay to
// the identical state from the checkpoint alone.
func TestNodeRestartAfterGracefulClose(t *testing.T) {
	fs := wal.NewMemFS()
	h := newDurableHarness(t, fs)
	if !h.workload() {
		t.Fatal("workload crashed without injection")
	}
	want := h.snapshot(h.live)
	if !bytes.Equal(want, h.snapshot(h.ref)) {
		t.Fatal("live and reference diverged before restart")
	}
	if err := h.live.CloseStore(); err != nil {
		t.Fatal(err)
	}
	node, out, err := h.restart()
	if err != nil || out != wal.OutcomeRecovered {
		t.Fatalf("recovery after graceful close = %v, %v", out, err)
	}
	if !bytes.Equal(h.snapshot(node), want) {
		t.Fatal("state diverged across graceful restart")
	}
}
