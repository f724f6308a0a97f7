package sdds

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/lhstar"
	"repro/internal/transport"
	"repro/internal/wal"
)

// sendLog counts the requests that cross a cluster's links: every send by
// op with its request and response bytes, separately the sends a node
// makes to a peer, and each migration op by MID.
type sendLog struct {
	mu        sync.Mutex
	ops       map[uint8]int
	reqBytes  map[uint8]int
	respBytes map[uint8]int
	peerOps   map[uint8]int
	migs      map[uint64][]migSend
	loopback  int // sends from a node to itself
}

// migSend is one migration op as sent: the node it went to and, for a
// prepare, the answer.
type migSend struct {
	node transport.NodeID
	op   uint8
	resp []byte
}

func newSendLog() *sendLog {
	return &sendLog{ops: map[uint8]int{}, reqBytes: map[uint8]int{}, respBytes: map[uint8]int{},
		peerOps: map[uint8]int{}, migs: map[uint64][]migSend{}}
}

// loggedLink is one sender's view of the transport: the client's
// (from < 0) or node from's peer transport.
type loggedLink struct {
	transport.Transport
	from int
	log  *sendLog
}

func (l *loggedLink) Send(ctx context.Context, node transport.NodeID, op uint8, payload []byte) ([]byte, error) {
	resp, err := l.Transport.Send(ctx, node, op, payload)
	l.log.mu.Lock()
	defer l.log.mu.Unlock()
	l.log.ops[op]++
	l.log.reqBytes[op] += len(payload)
	l.log.respBytes[op] += len(resp)
	if l.from >= 0 {
		l.log.peerOps[op]++
		if transport.NodeID(l.from) == node {
			l.log.loopback++
		}
	}
	if op >= opMigratePrepare && op <= opMigrateAbort {
		// Every migration request opens with its MID.
		mid := binary.BigEndian.Uint64(payload)
		ms := migSend{node: node, op: op}
		if op == opMigratePrepare {
			ms.resp = append([]byte(nil), resp...)
		}
		l.log.migs[mid] = append(l.log.migs[mid], ms)
	}
	return resp, err
}

// loopbackIAMs is the client IAM count of forwardStream, measured on the
// release that forwarded every stray over the transport, loopbacks
// included. Following a stray through the node's own buckets must leave
// every IAM the client gets unchanged.
const loopbackIAMs = 384

// forwardStream grows both files of a 3-node memory cluster past its
// 2^p = 64 slices with a seeded stream of puts, deletes, index inserts
// and gets, so nearly every stray's owner sits on the node the stray
// reached and nearly every split is node-local. It returns the cluster,
// its placement, the log of every send, and the live records.
func forwardStream(t *testing.T) (*Cluster, *Placement, *sendLog, map[uint64]string) {
	t.Helper()
	ctx := context.Background()
	log := newSendLog()
	mem := transport.NewMemory()
	place, err := NewPlacement(nodeIDs(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range place.Nodes() {
		mem.Register(id, NewNode(id, &loggedLink{Transport: mem, from: int(id), log: log}, place).Handler())
	}
	c := NewCluster(&loggedLink{Transport: mem, from: -1, log: log}, place)
	c.SetMaxLoad(FileRecords, 4)
	c.SetMaxLoad(FileIndex, 8)

	pl := testPipeline(t, 4, 2, 2)
	slotBits := SlotBits(pl.Chunkings(), pl.K())
	rng := rand.New(rand.NewSource(55))
	live := map[uint64]string{}
	for rid := uint64(0); rid < 700; rid++ {
		val := fmt.Sprintf("RECORD %05d %x", rid, rng.Uint32())
		if err := c.Put(ctx, FileRecords, rid, []byte(val)); err != nil {
			t.Fatalf("put %d: %v", rid, err)
		}
		live[rid] = val
		recs, err := pl.BuildIndex(rid, []byte(val))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.InsertIndexed(ctx, FileIndex, recs, pl.K(), slotBits); err != nil {
			t.Fatalf("index %d: %v", rid, err)
		}
		if rng.Intn(4) == 0 {
			victim := uint64(rng.Intn(int(rid) + 1))
			_, had := live[victim]
			found, err := c.Delete(ctx, FileRecords, victim)
			if err != nil || found != had {
				t.Fatalf("delete %d = %v, %v; want found %v", victim, found, err, had)
			}
			delete(live, victim)
		}
		if rng.Intn(4) == 0 {
			k := uint64(rng.Intn(int(rid) + 1))
			v, ok, err := c.Get(ctx, FileRecords, k)
			if want, had := live[k]; err != nil || ok != had || string(v) != want {
				t.Fatalf("get %d = %q, %v, %v; want %q, %v", k, v, ok, err, want, had)
			}
		}
	}
	for _, id := range []FileID{FileRecords, FileIndex} {
		if b := c.coord.File(id).State.Buckets(); b <= place.slices {
			t.Fatalf("file %d grew to %d buckets, want past the %d slices", id, b, place.slices)
		}
	}
	return c, place, log, live
}

// TestStraysNeverLoopBack: on forwardStream, every node follows a stray
// through its own buckets and forwards only to another node, in a
// put_batch (a get as a get): no node sends to itself, no put or delete
// request is sent at all, and the client's images take exactly the IAMs
// they took when strays looped back over the transport.
func TestStraysNeverLoopBack(t *testing.T) {
	ctx := context.Background()
	c, _, log, live := forwardStream(t)
	_, recIAMs := c.Stats(FileRecords)
	_, idxIAMs := c.Stats(FileIndex)

	log.mu.Lock()
	t.Logf("sends by op %v, node-to-node %v, client IAMs %d + %d", log.ops, log.peerOps, recIAMs, idxIAMs)
	if log.loopback != 0 {
		t.Errorf("%d sends from a node to itself, want 0", log.loopback)
	}
	if n := log.ops[opPut] + log.ops[opDelete]; n != 0 {
		t.Errorf("%d put/delete requests on the wire, want 0", n)
	}
	if log.peerOps[opPutBatch] == 0 {
		t.Error("no stray was forwarded to another node: the stream never exercised a forward")
	}
	log.mu.Unlock()
	if got := recIAMs + idxIAMs; got != loopbackIAMs {
		t.Errorf("client took %d IAMs, want %d", got, loopbackIAMs)
	}
	for k, want := range live {
		if v, ok, err := c.Get(ctx, FileRecords, k); err != nil || !ok || string(v) != want {
			t.Fatalf("get %d after the stream = %q, %v, %v; want %q", k, v, ok, err, want)
		}
	}
}

// opWire is one op's traffic: sends, request bytes, response bytes.
type opWire struct{ sends, req, resp int }

// The migrations of forwardStream and what their ops put on the wire:
// every split of both files past the first 63 is node-local, and only
// the cross-node ones' records travel, in prepare answers and absorbs.
const pinnedLocalMoves, pinnedCrossMoves = 361, 126

var pinnedMigBytes = map[string]opWire{
	"migrate_prepare": {487, 13149, 20108},
	"migrate_absorb":  {126, 21579, 0},
	"migrate_commit":  {252, 2016, 0},
	"migrate_abort":   {0, 0, 0},
}

// TestNodeLocalMovesSendOnePrepare: on forwardStream, a migration whose
// two buckets are on one node is one prepare, answered committed with
// no record, and nothing else; a cross-node one is a prepare to the
// source, an absorb to the target and a commit to each. The counts and
// the bytes every migration op put on the wire are pinned.
func TestNodeLocalMovesSendOnePrepare(t *testing.T) {
	c, place, log, _ := forwardStream(t)
	committed := encode(migratePrepareResp{status: migrateStatusCommitted})
	var local, cross int
	log.mu.Lock()
	defer log.mu.Unlock()
	for _, r := range c.coord.miglog.Records() {
		in := r.Intent
		src, dst := place.NodeOf(in.From), place.NodeOf(in.To)
		got := log.migs[in.MID]
		if !r.Done || r.Outcome != MigrationCommitted {
			t.Errorf("migration %d (%d → %d) did not commit: %+v", in.MID, in.From, in.To, r)
		}
		if src == dst {
			local++
			if len(got) != 1 || got[0].op != opMigratePrepare || got[0].node != src || !bytes.Equal(got[0].resp, committed) {
				t.Errorf("node-local migration %d (%d → %d on node %d) sent %+v, want one prepare answered %x", in.MID, in.From, in.To, src, got, committed)
			}
			continue
		}
		cross++
		want := []migSend{{node: src, op: opMigratePrepare}, {node: dst, op: opMigrateAbsorb},
			{node: src, op: opMigrateCommit}, {node: dst, op: opMigrateCommit}}
		ok := len(got) == len(want)
		for i := 0; ok && i < len(want); i++ {
			ok = got[i].node == want[i].node && got[i].op == want[i].op
		}
		if !ok || got[0].resp[0] != migrateStatusOK {
			t.Errorf("cross-node migration %d (%d on node %d → %d on node %d) sent %+v, want %+v", in.MID, in.From, src, in.To, dst, got, want)
		}
	}
	if len(log.migs) != local+cross {
		t.Errorf("migration ops sent for %d MIDs, the ledger holds %d", len(log.migs), local+cross)
	}
	gotBytes := map[string]opWire{}
	for _, op := range []uint8{opMigratePrepare, opMigrateAbsorb, opMigrateCommit, opMigrateAbort} {
		gotBytes[OpName(op)] = opWire{log.ops[op], log.reqBytes[op], log.respBytes[op]}
	}
	t.Logf("%d node-local and %d cross-node migrations; migration ops (sends, request bytes, response bytes) %v", local, cross, gotBytes)
	if local != pinnedLocalMoves || cross != pinnedCrossMoves {
		t.Errorf("%d node-local and %d cross-node migrations, want %d and %d", local, cross, pinnedLocalMoves, pinnedCrossMoves)
	}
	if !reflect.DeepEqual(gotBytes, pinnedMigBytes) {
		t.Errorf("migration ops on the wire %v, want %v", gotBytes, pinnedMigBytes)
	}
}

// hopsFrom counts the forwards key takes from bucket addr of a file in
// state st.
func hopsFrom(st lhstar.State, addr, key uint64) int {
	for h := 0; ; h++ {
		next, fwd := lhstar.ServerAddress(addr, st.BucketLevel(addr), key)
		if !fwd {
			return h
		}
		addr = next
	}
}

// TestHopBoundCountsLocalHops: a node refuses a stray whose next hop
// would be its maxHops-th, whether that hop is to one of its own buckets
// or to another node, and journals nothing for it; one hop short of the
// bound, it follows the stray to its owner and answers moved with the
// owner's IAM. Gets count the same way.
func TestHopBoundCountsLocalHops(t *testing.T) {
	ctx := context.Background()
	// A file state with a bucket from which some key takes two forwards.
	var st lhstar.State
	var from, key2, key1 uint64
	found := false
	for !found && st.Buckets() < 64 {
		st.AdvanceSplit()
		for a := uint64(0); a < st.Buckets() && !found; a++ {
			for k := uint64(0); k < 1024; k++ {
				if hopsFrom(st, a, k) == 2 {
					from, key2, found = a, k, true
					break
				}
			}
		}
	}
	if !found {
		t.Fatal("test set-up: no key takes two forwards")
	}
	for k := uint64(0); ; k++ {
		if hopsFrom(st, from, k) == 1 {
			key1 = k
			break
		}
	}

	// One node holds every bucket, so every hop is local.
	n := newDurableNode(t, wal.NewMemFS())
	f := n.getFile(FileRecords)
	n.mu.Lock()
	for a := uint64(0); a < st.Buckets(); a++ {
		f.buckets[a] = lhstar.NewBucket(a, st.BucketLevel(a))
	}
	n.mu.Unlock()
	owner := func(key uint64) (uint64, uint8) {
		a := st.Address(key)
		return a, uint8(st.BucketLevel(a))
	}

	for _, c := range []struct {
		key   uint64
		hops  uint8
		admit bool
	}{
		{key1, 0, true}, {key1, maxHops - 2, true}, {key1, maxHops - 1, false},
		{key2, 0, true}, {key2, 1, false},
	} {
		name := fmt.Sprintf("key %d from bucket %d after %d hops", c.key, from, c.hops)
		seq := n.store.Seq()
		raw, err := n.Handler()(ctx, opPutBatch, groupsReq(batchGroup{file: FileRecords, hops: c.hops,
			entries: []batchEntry{{addr: from, key: c.key, value: []byte("v")}}}))
		get, gerr := n.Handler()(ctx, opGet, encode(keyHeader{file: FileRecords, addr: from, hops: c.hops, key: c.key}))
		if !c.admit {
			if err == nil || !strings.Contains(err.Error(), "exceeded") {
				t.Errorf("%s: put_batch = %v, want the hop bound's refusal", name, err)
			}
			if gerr == nil || !strings.Contains(gerr.Error(), "exceeded") {
				t.Errorf("%s: get = %v, want the hop bound's refusal", name, gerr)
			}
			if got := n.store.Seq(); got != seq {
				t.Errorf("%s: refused stray journaled %d frames", name, got-seq)
			}
			continue
		}
		if err != nil || gerr != nil {
			t.Fatalf("%s: put_batch %v, get %v", name, err, gerr)
		}
		rd := reader{b: raw[4:]}
		var pr keyResp
		pr.decodeFrom(&rd)
		addr, level := owner(c.key)
		if rd.done() != nil || !pr.moved || pr.iamAddr != addr || pr.iamLevel != level {
			t.Errorf("%s: put_batch answered %+v, want moved to bucket %d at level %d", name, pr, addr, level)
		}
		if gr, err := decode[keyResp](get); err != nil || !gr.existed || gr.iamAddr != addr || gr.iamLevel != level {
			t.Errorf("%s: get answered %+v, %v, want the value from bucket %d at level %d", name, gr, err, addr, level)
		}
	}

	// Two nodes: bucket 1 of a 2-bucket file is on node 1, and node 0 has
	// no peer transport, so a stray it did try to forward fails on that.
	place, err := NewPlacement(nodeIDs(2))
	if err != nil {
		t.Fatal(err)
	}
	n0 := NewNode(0, nil, place)
	f0 := n0.getFile(FileRecords)
	n0.mu.Lock()
	f0.buckets[0] = lhstar.NewBucket(0, 1)
	n0.mu.Unlock()
	for hops, want := range map[uint8]string{maxHops - 2: "no peer transport", maxHops - 1: "exceeded"} {
		_, err := n0.Handler()(ctx, opPutBatch, groupsReq(batchGroup{file: FileRecords, hops: hops,
			entries: []batchEntry{{key: 1, value: []byte("v")}}}))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("remote stray after %d hops: %v, want %q", hops, err, want)
		}
	}
}
