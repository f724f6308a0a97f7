package sdds

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/lhstar"
	"repro/internal/transport"
	"repro/internal/wal"
)

// gatedFS wraps a wal.FS so that every journal fsync first runs a hook,
// which may block — holding the flush "on disk" — or return an error,
// failing the fsync without making a byte durable.
type gatedFS struct {
	wal.FS
	mu   sync.Mutex
	hook func() error
}

func (g *gatedFS) onSync(fn func() error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.hook = fn
}

func (g *gatedFS) OpenAppend(name string) (wal.File, error) {
	f, err := g.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &gatedFile{File: f, g: g}, nil
}

type gatedFile struct {
	wal.File
	g *gatedFS
}

func (f *gatedFile) Sync() error {
	f.g.mu.Lock()
	hook := f.g.hook
	f.g.mu.Unlock()
	if hook != nil {
		if err := hook(); err != nil {
			return err
		}
	}
	return f.File.Sync()
}

// newDurableNode opens a single-node placement with a store on fs — the
// smallest thing that journals.
func newDurableNode(t *testing.T, fs wal.FS) *Node {
	t.Helper()
	place, err := NewPlacement([]transport.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	st, err := wal.Open(fs, "node", wal.Options{CheckpointBytes: 600})
	if err != nil {
		t.Fatalf("opening store: %v", err)
	}
	n := NewNode(0, nil, place)
	if _, err := n.AttachStore(st); err != nil {
		t.Fatalf("AttachStore: %v", err)
	}
	return n
}

func sortedHits(r searchResp) []rawHit {
	h := append([]rawHit(nil), r.hits...)
	sort.Slice(h, func(i, j int) bool {
		a, b := h[i], h[j]
		if a.rid != b.rid {
			return a.rid < b.rid
		}
		if a.j != b.j {
			return a.j < b.j
		}
		if a.k != b.k {
			return a.k < b.k
		}
		if a.a != b.a {
			return a.a < b.a
		}
		return a.pieceOffset < b.pieceOffset
	})
	return h
}

// TestPutBatchPartialFailureKeepsIndexInSync is the regression test for
// handlePutBatch's early returns: a batch whose second entry hits a
// bucket frozen by a migration fails, but its first entry was already
// put into a bucket — and must be in the posting index too, or indexed
// search and the linear scan disagree until the next rebuild.
func TestPutBatchPartialFailureKeepsIndexInSync(t *testing.T) {
	pl := testPipeline(t, 4, 2, 2)
	slotBits := SlotBits(pl.Chunkings(), pl.K())
	place, err := NewPlacement([]transport.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	n := NewNode(0, nil, place)
	f := n.getFile(FileIndex)
	n.mu.Lock()
	f.buckets[0] = lhstar.NewBucket(0, 1) // even keys
	f.buckets[1] = lhstar.NewBucket(1, 1) // odd keys
	f.migLock(1, 99)                      // bucket 1 is mid-migration
	n.mu.Unlock()

	content := []byte("ABCDEFGHIJKLMNOPQRSTUVWX")
	recs, err := pl.BuildIndex(1, content)
	if err != nil {
		t.Fatal(err)
	}
	// Chunking J=0: site 0's stream gets an even key, site 1's an odd one.
	var entries []batchEntry
	for k, stream := range recs[0].Streams {
		key := ComposeIndexKey(1, recs[0].J, k, pl.K(), slotBits)
		entries = append(entries, batchEntry{
			addr:  key % 2,
			key:   key,
			value: encode(indexValue{firstIndex: uint32(recs[0].FirstIndex), pieces: stream}),
		})
	}
	if entries[0].addr != 0 || entries[1].addr != 1 {
		t.Fatalf("test set-up: entries land on buckets %d, %d; want 0, 1", entries[0].addr, entries[1].addr)
	}
	_, err = n.Handler()(context.Background(), opPutBatch, batchReq(FileIndex, entries...))
	if err == nil || !strings.Contains(err.Error(), "frozen") {
		t.Fatalf("batch into a frozen bucket = %v, want the freeze rejection", err)
	}
	if f.buckets[0].Len() != 1 {
		t.Fatalf("bucket 0 holds %d entries, want the one applied before the rejection", f.buckets[0].Len())
	}
	checkPostingInvariants(t, []*Node{n})

	query, err := pl.BuildQuery(content[4:16], false)
	if err != nil {
		t.Fatal(err)
	}
	req := queryToSearchReq(FileIndex, query, pl.Chunkings(), pl.K())
	var fast, linear searchResp
	n.mu.RLock()
	n.searchPosting(f.idx, &req, &fast)
	n.searchLinear(f, &req, &linear)
	n.mu.RUnlock()
	if len(linear.hits) == 0 {
		t.Fatal("test set-up: the linear scan finds nothing to disagree about")
	}
	if got, want := sortedHits(fast), sortedHits(linear); !reflect.DeepEqual(got, want) {
		t.Fatalf("indexed search and linear scan disagree after a partly applied batch:\n fast   %v\n linear %v", got, want)
	}
}

// TestReadsNotBlockedByFlush: put_batch, every data write, does not hold
// the node lock across the journal flush, so while a batch waits for its
// fsync a search and a get on the same node complete — and the get
// already sees the batch's entry, which is the visibility rule the
// ordering implies: applied state is readable before it is acknowledged,
// and only unacknowledged state can be lost.
func TestReadsNotBlockedByFlush(t *testing.T) {
	fs := &gatedFS{FS: wal.NewMemFS()}
	n := newDurableNode(t, fs)
	h := n.Handler()
	ctx := context.Background()
	// Hold the batch's journal fsync (the only one this test causes) on
	// "disk" until released.
	entered, release := make(chan struct{}, 1), make(chan struct{})
	fs.onSync(func() error {
		entered <- struct{}{}
		<-release
		return nil
	})

	batch := batchReq(FileRecords, batchEntry{key: 7, value: []byte("unacked")}, batchEntry{key: 8, value: []byte("unacked")})
	putDone := make(chan error, 1)
	go func() {
		_, err := h(ctx, opPutBatch, batch)
		putDone <- err
	}()
	<-entered // the batch is applied and its flush is on "disk"

	reads := make(chan error, 1)
	go func() {
		if _, err := h(ctx, opSearch, encode(searchReq{file: FileIndex, kSites: 2, slotBits: 2})); err != nil {
			reads <- fmt.Errorf("search: %w", err)
			return
		}
		raw, err := h(ctx, opGet, encode(keyHeader{file: FileRecords, key: 7}))
		if err != nil {
			reads <- fmt.Errorf("get: %w", err)
			return
		}
		if v, err := decode[keyResp](raw); err != nil || !v.existed || string(v.value) != "unacked" {
			reads <- fmt.Errorf("get during the flush = %+v, %v; want the applied value", v, err)
			return
		}
		reads <- nil
	}()
	select {
	case err := <-reads:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(10 * time.Second):
		t.Error("search/get queued behind a journal flush: the node lock is held across fsync")
	}
	select {
	case err := <-putDone:
		t.Errorf("put_batch acknowledged (%v) before its flush finished", err)
	default:
	}
	close(release)
	if err := <-putDone; err != nil {
		t.Fatalf("put_batch: %v", err)
	}
}

// TestPutBatchSharesOneFlush: a batch journals one frame per entry but
// pays one fsync for all of them.
func TestPutBatchSharesOneFlush(t *testing.T) {
	fs := &gatedFS{FS: wal.NewMemFS()}
	n := newDurableNode(t, fs)
	var flushes int
	fs.onSync(func() error { flushes++; return nil })
	var entries []batchEntry
	for k := uint64(1); k <= 6; k++ {
		entries = append(entries, batchEntry{key: k, value: []byte("v")})
	}
	if _, err := n.Handler()(context.Background(), opPutBatch, batchReq(FileRecords, entries...)); err != nil {
		t.Fatal(err)
	}
	if flushes != 1 {
		t.Fatalf("a 6-entry put_batch cost %d fsyncs, want 1", flushes)
	}
	if seq := n.store.Seq(); seq != 6 {
		t.Fatalf("journal holds %d frames, want one per entry (6)", seq)
	}
}

// TestNodeFailStopsOnFlushError: when the flush behind a put fails, the
// put is refused and so is every later mutation — nothing may be
// acknowledged on top of a journal whose tail is unknown — while reads
// keep being served.
func TestNodeFailStopsOnFlushError(t *testing.T) {
	fs := &gatedFS{FS: wal.NewMemFS()}
	n := newDurableNode(t, fs)
	h := n.Handler()
	ctx := context.Background()
	put := func(key uint64) error {
		_, err := h(ctx, opPutBatch, batchReq(FileRecords, batchEntry{key: key, value: []byte("v")}))
		return err
	}
	if err := put(1); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected fsync failure")
	fs.onSync(func() error { return boom })
	if err := put(2); !errors.Is(err, boom) {
		t.Fatalf("put over a failing fsync = %v, want the injected error", err)
	}
	fs.onSync(nil)
	if err := put(3); !errors.Is(err, boom) {
		t.Fatalf("put after a failed flush = %v, want the store's first error", err)
	}
	if _, err := h(ctx, opPutBatch, groupsReq(batchGroup{file: FileRecords, del: true, entries: []batchEntry{{key: 1}}})); !errors.Is(err, boom) {
		t.Fatalf("delete after a failed flush = %v, want the store's first error", err)
	}
	raw, err := h(ctx, opGet, encode(keyHeader{file: FileRecords, key: 1}))
	if err != nil {
		t.Fatalf("get on a fail-stopped node: %v", err)
	}
	if v, err := decode[keyResp](raw); err != nil || !v.existed {
		t.Fatalf("get on a fail-stopped node = %+v, %v; want the acknowledged record", v, err)
	}
}

// scriptOp is one put_batch of a concurrent-crash-matrix writer: one
// group putting val under every key, or deleting every key.
type scriptOp struct {
	del  bool
	keys []uint64
	val  []byte
}

func (o scriptOp) encode() []byte {
	g := batchGroup{file: FileRecords, del: o.del}
	for _, k := range o.keys {
		e := batchEntry{key: k}
		if !o.del {
			e.value = o.val
		}
		g.entries = append(g.entries, e)
	}
	return groupsReq(g)
}

// applyTo folds the op into a key → value model (nil = absent).
func (o scriptOp) applyTo(model map[uint64][]byte) {
	for _, k := range o.keys {
		if o.del {
			model[k] = nil
		} else {
			model[k] = o.val
		}
	}
}

// writerScript is a fixed run of one-entry puts, batches, overwrites and
// deletes over keys only writer w touches, padded so checkpoints come
// due.
func writerScript(w int) []scriptOp {
	base := uint64(w+1) * 1000
	val := func(i int) []byte { return []byte(fmt.Sprintf("w%d-%02d body padding to exercise checkpoints", w, i)) }
	var ops []scriptOp
	for i := 0; i < 4; i++ {
		k := base + uint64(i)*10
		ops = append(ops,
			scriptOp{keys: []uint64{k}, val: val(4 * i)},
			scriptOp{keys: []uint64{k + 1, k + 2, k + 3}, val: val(4*i + 1)},
			scriptOp{keys: []uint64{k + 1}, val: val(4*i + 2)}, // overwrite
			scriptOp{del: true, keys: []uint64{k + 2}},
		)
	}
	// One more put, so the two writers' scripts span at least the 88
	// crash points the concurrent matrix names (op001 to op088).
	return append(ops, scriptOp{keys: []uint64{base + 100}, val: val(16)})
}

// TestNodeCrashMatrixConcurrent is TestNodeCrashMatrix's put/delete/
// put_batch traffic from two concurrent writers on disjoint keys, so
// requests share flushes and checkpoints cover frames still pending.
// Killed at every filesystem operation in every tear mode, the restarted
// node must hold every acknowledged mutation; each writer's one
// unacknowledged request may be present or absent, key by key.
func TestNodeCrashMatrixConcurrent(t *testing.T) {
	const writers = 2
	ctx := context.Background()

	// run drives every writer until its script ends or the crash fails a
	// request. acked models the acknowledged state; maybe[k] is what key k
	// holds if the request the crash swallowed did reach the journal.
	run := func(n *Node) (acked, maybe map[uint64][]byte) {
		acked, maybe = map[uint64][]byte{}, map[uint64][]byte{}
		var mu sync.Mutex
		var wg sync.WaitGroup
		wg.Add(writers)
		for w := 0; w < writers; w++ {
			go func(w int) {
				defer wg.Done()
				for _, op := range writerScript(w) {
					_, err := n.Handler()(ctx, opPutBatch, op.encode())
					mu.Lock()
					if err != nil {
						op.applyTo(maybe)
						mu.Unlock()
						return
					}
					op.applyTo(acked)
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		return acked, maybe
	}

	// Serial dry run: no shared flushes, so an upper bound on crash points.
	probe := wal.NewMemFS()
	dry := newDurableNode(t, probe)
	probe.SetCrash(0, wal.CrashDrop)
	for w := 0; w < writers; w++ {
		for _, op := range writerScript(w) {
			if _, err := dry.Handler()(ctx, opPutBatch, op.encode()); err != nil {
				t.Fatalf("dry run: %v", err)
			}
		}
	}
	totalOps := probe.Ops()
	if totalOps < 88 {
		t.Fatalf("workload too small for the matrix: %d fs ops, want at least 88", totalOps)
	}

	stride := 1
	if testing.Short() {
		stride = 7
	}
	for _, mode := range []wal.CrashMode{wal.CrashDrop, wal.CrashKeep, wal.CrashTorn} {
		for at := 1; at <= totalOps; at += stride {
			t.Run(fmt.Sprintf("%s/op%03d", mode, at), func(t *testing.T) {
				fs := wal.NewMemFS()
				live := newDurableNode(t, fs)
				fs.SetCrash(at, mode)
				acked, maybe := run(live)
				// Shared flushes can finish both scripts before op `at`;
				// the kill then must lose nothing at all.
				live.store.(*wal.Store).Abort()
				fs.Restart()

				st, err := wal.Open(fs, "node", wal.Options{CheckpointBytes: 600})
				if err != nil {
					t.Fatalf("reopening store: %v", err)
				}
				place, _ := NewPlacement([]transport.NodeID{0})
				node := NewNode(0, nil, place)
				if out, err := node.AttachStore(st); err != nil {
					t.Fatalf("restart recovery = %v, %v", out, err)
				}
				for w := 0; w < writers; w++ {
					for _, op := range writerScript(w) {
						for _, k := range op.keys {
							raw, err := node.Handler()(ctx, opGet, encode(keyHeader{file: FileRecords, key: k}))
							if err != nil {
								t.Fatalf("get %d: %v", k, err)
							}
							got, err := decode[keyResp](raw)
							if err != nil {
								t.Fatal(err)
							}
							if bytes.Equal(got.value, acked[k]) {
								continue
							}
							if alt, ok := maybe[k]; ok && bytes.Equal(got.value, alt) {
								continue
							}
							t.Fatalf("key %d recovered as %q; acknowledged state is %q (in-flight alternative: %q)",
								k, got.value, acked[k], maybe[k])
						}
					}
				}
				putAndRecoverAgain(t, fs, node)
			})
		}
	}
}
