package sdds

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"

	"repro/internal/chunk"
	"repro/internal/cipherx"
	"repro/internal/core"
	"repro/internal/disperse"
	"repro/internal/lhstar"
	"repro/internal/transport"
)

// memCluster wires n in-memory nodes into a cluster.
func memCluster(t *testing.T, n int) *Cluster {
	t.Helper()
	mem := transport.NewMemory()
	ids := make([]transport.NodeID, n)
	for i := range ids {
		ids[i] = transport.NodeID(i)
	}
	place, err := NewPlacement(ids)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		node := NewNode(id, mem, place)
		mem.Register(id, node.Handler())
	}
	return NewCluster(mem, place)
}

func testPipeline(t *testing.T, s, m, k int) *core.Pipeline {
	t.Helper()
	pl, err := core.NewPipeline(core.Params{
		Chunk:      chunk.Params{S: s, M: m},
		DisperseK:  k,
		MatrixKind: disperse.MatrixRandom,
		Key:        cipherx.KeyFromPassphrase("sdds-test"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestComposeDecomposeIndexKey(t *testing.T) {
	for _, c := range []struct{ m, k int }{{2, 4}, {1, 1}, {4, 2}, {8, 8}} {
		bits := SlotBits(c.m, c.k)
		for j := 0; j < c.m; j++ {
			for k := 0; k < c.k; k++ {
				for _, rid := range []uint64{0, 1, 4154090271, 1 << 40} {
					key := ComposeIndexKey(rid, j, k, c.k, bits)
					gr, gj, gk := DecomposeIndexKey(key, c.k, bits)
					if gr != rid || gj != j || gk != k {
						t.Fatalf("m=%d k=%d: (%d,%d,%d) -> %d -> (%d,%d,%d)",
							c.m, c.k, rid, j, k, key, gr, gj, gk)
					}
				}
			}
		}
	}
}

func TestSlotBits(t *testing.T) {
	cases := []struct {
		m, k int
		want uint
	}{
		{2, 4, 3}, // Figure 3: 2 chunkings × 4 sites → 3 bits
		{1, 1, 0},
		{2, 2, 2},
		{3, 3, 4}, // 9 slots → 4 bits
	}
	for _, c := range cases {
		if got := SlotBits(c.m, c.k); got != c.want {
			t.Errorf("SlotBits(%d, %d) = %d, want %d", c.m, c.k, got, c.want)
		}
	}
}

func TestClusterPutGetDelete(t *testing.T) {
	c := memCluster(t, 4)
	c.SetMaxLoad(FileRecords, 8)
	ctx := context.Background()
	for k := uint64(0); k < 500; k++ {
		if err := c.Put(ctx, FileRecords, k, []byte{byte(k), byte(k >> 8)}); err != nil {
			t.Fatal(err)
		}
	}
	if c.coord.File(FileRecords).Size != 500 {
		t.Errorf("Size = %d", c.coord.File(FileRecords).Size)
	}
	if c.coord.File(FileRecords).State.Buckets() < 16 {
		t.Errorf("file did not grow: %d buckets", c.coord.File(FileRecords).State.Buckets())
	}
	for k := uint64(0); k < 500; k++ {
		v, ok, err := c.Get(ctx, FileRecords, k)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || v[0] != byte(k) {
			t.Fatalf("Get(%d) = %v %v", k, v, ok)
		}
	}
	if _, ok, _ := c.Get(ctx, FileRecords, 99999); ok {
		t.Error("phantom key")
	}
	for k := uint64(0); k < 100; k++ {
		ok, err := c.Delete(ctx, FileRecords, k)
		if err != nil || !ok {
			t.Fatalf("Delete(%d) = %v %v", k, ok, err)
		}
	}
	if ok, _ := c.Delete(ctx, FileRecords, 0); ok {
		t.Error("double delete")
	}
	if c.coord.File(FileRecords).Size != 400 {
		t.Errorf("Size = %d after deletes", c.coord.File(FileRecords).Size)
	}
}

func TestClusterReplacePut(t *testing.T) {
	c := memCluster(t, 2)
	ctx := context.Background()
	c.Put(ctx, FileRecords, 7, []byte("old"))
	c.Put(ctx, FileRecords, 7, []byte("new"))
	if c.coord.File(FileRecords).Size != 1 {
		t.Errorf("Size = %d after replace", c.coord.File(FileRecords).Size)
	}
	v, ok, _ := c.Get(ctx, FileRecords, 7)
	if !ok || !bytes.Equal(v, []byte("new")) {
		t.Errorf("Get = %q %v", v, ok)
	}
}

func TestStaleImageForwardingAndIAM(t *testing.T) {
	c := memCluster(t, 4)
	c.SetMaxLoad(FileRecords, 4)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(9))
	keys := make([]uint64, 600)
	for i := range keys {
		keys[i] = rng.Uint64() >> 4
		if err := c.Put(ctx, FileRecords, keys[i], []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	// Wipe the client image: every access now starts from the initial
	// single-bucket view and must still find its record via forwarding.
	c.mu.Lock()
	c.files[FileRecords].image = lhstar.Image{}
	c.mu.Unlock()
	for _, k := range keys {
		if _, ok, err := c.Get(ctx, FileRecords, k); err != nil || !ok {
			t.Fatalf("stale-image Get(%d) = %v %v", k, ok, err)
		}
	}
	_, iams := c.Stats(FileRecords)
	if iams == 0 {
		t.Error("no IAMs despite stale image")
	}
	img := c.Image(FileRecords)
	if img.Buckets() <= 1 {
		t.Error("image never improved")
	}
	if img.Buckets() > c.coord.File(FileRecords).State.Buckets() {
		t.Errorf("image overshoots state: %d > %d", img.Buckets(), c.coord.File(FileRecords).State.Buckets())
	}
	// One pass converged the image: a second finds every key directly.
	for _, k := range keys {
		if _, ok, err := c.Get(ctx, FileRecords, k); err != nil || !ok {
			t.Fatalf("second-pass Get(%d) = %v %v", k, ok, err)
		}
	}
	if _, again := c.Stats(FileRecords); again != iams {
		t.Errorf("second pass over a converged image sent %d IAMs", again-iams)
	}
	if load := float64(c.coord.File(FileRecords).Size) / float64(c.coord.File(FileRecords).State.Buckets()); load > 4 {
		t.Errorf("grown file holds %.2f records per bucket, above maxLoad 4", load)
	}
}

func TestBucketInventory(t *testing.T) {
	c := memCluster(t, 3)
	c.SetMaxLoad(FileRecords, 4)
	ctx := context.Background()
	for k := uint64(0); k < 64; k++ {
		c.Put(ctx, FileRecords, k, []byte{1})
	}
	inv, err := c.BucketInventory(ctx, FileRecords)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(inv)) != c.coord.File(FileRecords).State.Buckets() {
		t.Errorf("inventory has %d buckets, state says %d", len(inv), c.coord.File(FileRecords).State.Buckets())
	}
	total := 0
	nodesUsed := make(map[transport.NodeID]bool)
	for _, b := range inv {
		total += b.Size
		nodesUsed[b.Node] = true
	}
	if total != 64 {
		t.Errorf("inventory counts %d records", total)
	}
	if len(nodesUsed) != 3 {
		t.Errorf("buckets on %d nodes, want 3", len(nodesUsed))
	}
}

// insertEverywhere stores a record in both the reference MemIndex and
// the distributed cluster.
func insertEverywhere(t *testing.T, ctx context.Context, c *Cluster, ix *core.MemIndex, pl *core.Pipeline, rid uint64, rc []byte) {
	t.Helper()
	if err := ix.Insert(rid, rc); err != nil {
		t.Fatal(err)
	}
	recs, err := pl.BuildIndex(rid, rc)
	if err != nil {
		t.Fatal(err)
	}
	slotBits := SlotBits(pl.Chunkings(), pl.K())
	if err := c.InsertIndexed(ctx, FileIndex, recs, pl.K(), slotBits); err != nil {
		t.Fatal(err)
	}
}

// TestDistributedSearchAgreesWithReference is the central integration
// test: the distributed scatter-gather search over LH* buckets must
// return exactly what the single-process reference implementation
// returns, for every verification mode, across random workloads.
func TestDistributedSearchAgreesWithReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	alphabet := []byte("ABCDEFGH ")
	ctx := context.Background()
	for _, cfg := range []struct{ s, m, k, nodes int }{
		{4, 2, 2, 3},
		{4, 4, 4, 5},
		{2, 2, 1, 2},
		{8, 4, 4, 4},
	} {
		c := memCluster(t, cfg.nodes)
		c.SetMaxLoad(FileIndex, 8) // force plenty of splits
		pl := testPipeline(t, cfg.s, cfg.m, cfg.k)
		ix := core.NewMemIndex(pl)
		var rcs [][]byte
		for rid := uint64(0); rid < 40; rid++ {
			n := cfg.s*3 + rng.Intn(30)
			rc := make([]byte, n)
			for i := range rc {
				rc[i] = alphabet[rng.Intn(len(alphabet))]
			}
			rcs = append(rcs, rc)
			insertEverywhere(t, ctx, c, ix, pl, rid, rc)
		}
		for trial := 0; trial < 60; trial++ {
			need := cfg.s*2 - 1
			if pl.MinQueryLen() > need {
				need = pl.MinQueryLen()
			}
			qlen := need + rng.Intn(6)
			var q []byte
			if trial%3 == 0 && len(rcs[trial%len(rcs)]) >= qlen {
				// A query cut from a real record: guaranteed hit.
				rc := rcs[trial%len(rcs)]
				pos := rng.Intn(len(rc) - qlen + 1)
				q = rc[pos : pos+qlen]
			} else {
				q = make([]byte, qlen)
				for i := range q {
					q[i] = alphabet[rng.Intn(len(alphabet))]
				}
			}
			for _, mode := range []core.VerifyMode{core.VerifyAny, core.VerifyAll, core.VerifyAligned} {
				want, err := ix.Search(q, mode)
				if err != nil {
					t.Fatal(err)
				}
				query, err := pl.BuildQuery(q, mode != core.VerifyAny)
				if err != nil {
					t.Fatal(err)
				}
				got, err := c.Search(ctx, FileIndex, pl, query, mode)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("cfg %+v mode %v query %q: distributed %v != reference %v",
						cfg, mode, q, got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("cfg %+v mode %v query %q: distributed %v != reference %v",
							cfg, mode, q, got, want)
					}
				}
			}
		}
	}
}

func TestDeleteIndexedRemovesFromSearch(t *testing.T) {
	ctx := context.Background()
	c := memCluster(t, 3)
	pl := testPipeline(t, 4, 2, 2)
	slotBits := SlotBits(pl.Chunkings(), pl.K())

	recs, err := pl.BuildIndex(7, []byte("SCHWARZ THOMAS RECORD"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InsertIndexed(ctx, FileIndex, recs, pl.K(), slotBits); err != nil {
		t.Fatal(err)
	}
	query, err := pl.BuildQuery([]byte("SCHWARZ"), false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Search(ctx, FileIndex, pl, query, core.VerifyAny)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("before delete: %v", got)
	}
	if err := c.DeleteIndexed(ctx, FileIndex, 7, pl.Chunkings(), pl.K(), slotBits); err != nil {
		t.Fatal(err)
	}
	got, err = c.Search(ctx, FileIndex, pl, query, core.VerifyAny)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("after delete: %v", got)
	}
}

func TestIndexPiecesScatterAcrossNodes(t *testing.T) {
	// §5: composite keys put pieces of one record into different buckets
	// once the file is large enough.
	ctx := context.Background()
	c := memCluster(t, 4)
	c.SetMaxLoad(FileIndex, 2)
	pl := testPipeline(t, 4, 2, 4)
	slotBits := SlotBits(pl.Chunkings(), pl.K())
	for rid := uint64(0); rid < 30; rid++ {
		recs, err := pl.BuildIndex(rid, []byte(fmt.Sprintf("RECORD NUMBER %d CONTENT", rid)))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.InsertIndexed(ctx, FileIndex, recs, pl.K(), slotBits); err != nil {
			t.Fatal(err)
		}
	}
	// The 8 pieces of record 5 must live in >= 2 distinct buckets.
	inv, err := c.BucketInventory(ctx, FileIndex)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(inv)) < 8 {
		t.Fatalf("file too small for the scatter property: %d buckets", len(inv))
	}
	state := c.coord.File(FileIndex).State
	bucketsOf := make(map[uint64]bool)
	for j := 0; j < pl.Chunkings(); j++ {
		for k := 0; k < pl.K(); k++ {
			key := ComposeIndexKey(5, j, k, pl.K(), slotBits)
			bucketsOf[state.Address(key)] = true
		}
	}
	if len(bucketsOf) < 2 {
		t.Errorf("pieces of one record in %d bucket(s)", len(bucketsOf))
	}
}

// TestClusterOverTCP runs the full store/search path over real loopback
// sockets: TCP nodes, TCP forwarding between nodes, scatter-gather
// search.
func TestClusterOverTCP(t *testing.T) {
	const nNodes = 3
	ids := make([]transport.NodeID, nNodes)
	for i := range ids {
		ids[i] = transport.NodeID(i)
	}
	place, err := NewPlacement(ids)
	if err != nil {
		t.Fatal(err)
	}

	// Start listeners first so every node knows every address.
	addrs := make(map[transport.NodeID]string)
	listeners := make([]net.Listener, nNodes)
	for i := range ids {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = lis
		addrs[ids[i]] = lis.Addr().String()
	}
	peerTransport := transport.NewTCP(addrs)
	defer peerTransport.Close()
	var servers []*transport.Server
	for i, id := range ids {
		node := NewNode(id, peerTransport, place)
		srv := transport.NewServer(node.Handler())
		servers = append(servers, srv)
		go srv.Serve(listeners[i])
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	clientTransport := transport.NewTCP(addrs)
	defer clientTransport.Close()
	c := NewCluster(clientTransport, place)
	c.SetMaxLoad(FileIndex, 4)
	c.SetMaxLoad(FileRecords, 4)
	pl := testPipeline(t, 4, 2, 2)
	slotBits := SlotBits(pl.Chunkings(), pl.K())
	ctx := context.Background()

	names := []string{
		"SCHWARZ THOMAS", "TSUI PETER", "LITWIN WITOLD",
		"WONG MEI LING", "MARTINEZ MARIA", "ANDERSON JOHN",
		"CHAN WAI", "NGUYEN TUAN", "JOHNSON KAREN", "LEE MING",
	}
	for i, name := range names {
		rid := uint64(1000 + i)
		if err := c.Put(ctx, FileRecords, rid, []byte(name)); err != nil {
			t.Fatal(err)
		}
		recs, err := pl.BuildIndex(rid, []byte(name))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.InsertIndexed(ctx, FileIndex, recs, pl.K(), slotBits); err != nil {
			t.Fatal(err)
		}
	}
	query, err := pl.BuildQuery([]byte("MARTINEZ"), false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Search(ctx, FileIndex, pl, query, core.VerifyAny)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 1004 {
		t.Fatalf("TCP search = %v, want [1004]", got)
	}
	// Fetch the record back over TCP.
	v, ok, err := c.Get(ctx, FileRecords, got[0])
	if err != nil || !ok || string(v) != "MARTINEZ MARIA" {
		t.Fatalf("record fetch: %q %v %v", v, ok, err)
	}
}

func TestNodeRejectsMalformedPayloads(t *testing.T) {
	c := memCluster(t, 1)
	ctx := context.Background()
	for _, op := range []uint8{opGet, opSearch, opPutBatch, opMigratePrepare, opMigrateAbsorb} {
		if _, err := c.tr.Send(ctx, 0, op, []byte{0xFF}); err == nil {
			t.Errorf("op %d accepted garbage", op)
		}
	}
	// Put and delete are journal records only, 5 is the retired bucket
	// create, 6, 7, 9, 10 the retired destructive split/merge codes.
	for _, op := range []uint8{opPut, opDelete, 5, 6, 7, 9, 10, 200} {
		if _, err := c.tr.Send(ctx, 0, op, nil); err == nil || !strings.Contains(err.Error(), "unknown op") {
			t.Errorf("op %d: err = %v, want unknown op", op, err)
		}
	}
}

func TestDistributedShrink(t *testing.T) {
	c := memCluster(t, 4)
	c.SetMaxLoad(FileRecords, 8)
	ctx := context.Background()
	for k := uint64(0); k < 800; k++ {
		if err := c.Put(ctx, FileRecords, k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	grown := c.coord.File(FileRecords).State.Buckets()
	if grown < 16 {
		t.Fatalf("file only grew to %d buckets", grown)
	}
	for k := uint64(0); k < 800; k++ {
		if _, err := c.Delete(ctx, FileRecords, k); err != nil {
			t.Fatal(err)
		}
	}
	shrunk := c.coord.File(FileRecords).State.Buckets()
	if shrunk >= grown {
		t.Errorf("file did not shrink: %d -> %d buckets", grown, shrunk)
	}
	if c.coord.File(FileRecords).Merges == 0 {
		t.Error("no merges recorded")
	}
	// The inventory must agree with the state after shrinking.
	inv, err := c.BucketInventory(ctx, FileRecords)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(inv)) != shrunk {
		t.Errorf("inventory %d buckets, state %d", len(inv), shrunk)
	}
}

func TestShrinkPreservesSurvivingRecords(t *testing.T) {
	c := memCluster(t, 3)
	c.SetMaxLoad(FileRecords, 4)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(31))
	keys := make([]uint64, 400)
	for i := range keys {
		keys[i] = rng.Uint64() >> 8
		if err := c.Put(ctx, FileRecords, keys[i], []byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatal(err)
		}
	}
	// Delete 95%; the rest must survive the shrinks intact.
	for _, k := range keys[:380] {
		if _, err := c.Delete(ctx, FileRecords, k); err != nil {
			t.Fatal(err)
		}
	}
	if c.coord.File(FileRecords).Merges == 0 {
		t.Fatal("expected merges")
	}
	for i, k := range keys[380:] {
		v, ok, err := c.Get(ctx, FileRecords, k)
		if err != nil || !ok {
			t.Fatalf("survivor %d lost: %v %v", k, ok, err)
		}
		want := i + 380
		if v[0] != byte(want) || v[1] != byte(want>>8) {
			t.Fatalf("survivor %d corrupted", k)
		}
	}
	// Grow again after shrinking: the full cycle must keep working.
	for k := uint64(1 << 40); k < 1<<40+300; k++ {
		if err := c.Put(ctx, FileRecords, k, []byte{7}); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(1 << 40); k < 1<<40+300; k++ {
		if _, ok, err := c.Get(ctx, FileRecords, k); err != nil || !ok {
			t.Fatalf("regrowth key %d: %v %v", k, ok, err)
		}
	}
}

// memClusterWithTransport is memCluster but also returns the transport
// for failure injection.
func memClusterWithTransport(t *testing.T, n int) (*Cluster, *transport.Memory) {
	t.Helper()
	mem := transport.NewMemory()
	ids := make([]transport.NodeID, n)
	for i := range ids {
		ids[i] = transport.NodeID(i)
	}
	place, err := NewPlacement(ids)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		node := NewNode(id, mem, place)
		mem.Register(id, node.Handler())
	}
	return NewCluster(mem, place), mem
}

func TestSearchPartialUnderNodeFailure(t *testing.T) {
	ctx := context.Background()
	c, mem := memClusterWithTransport(t, 4)
	c.SetMaxLoad(FileIndex, 4)
	pl := testPipeline(t, 4, 2, 1)
	slotBits := SlotBits(pl.Chunkings(), pl.K())
	names := []string{
		"SCHWARZ THOMAS", "MARTINEZ MARIA", "LITWIN WITOLD",
		"ANDERSON JOHN", "NGUYEN TUAN", "WONG MEI",
		"JOHNSON KAREN", "GARCIA CARMEN", "CHEN WEI", "TAYLOR MARK",
	}
	for i, n := range names {
		recs, err := pl.BuildIndex(uint64(i), []byte(n))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.InsertIndexed(ctx, FileIndex, recs, pl.K(), slotBits); err != nil {
			t.Fatal(err)
		}
	}
	query, err := pl.BuildQuery([]byte("MARTINEZ"), false)
	if err != nil {
		t.Fatal(err)
	}
	// Healthy cluster: strict search works.
	got, err := c.Search(ctx, FileIndex, pl, query, core.VerifyAny)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("healthy search: %v", got)
	}

	// Kill node 2: search fails loudly, and the partial answer its
	// IncompleteError carries never holds spurious hits.
	mem.Unregister(2)
	_, err = c.Search(ctx, FileIndex, pl, query, core.VerifyAny)
	var ie *IncompleteError
	if !errors.As(err, &ie) {
		t.Fatalf("search despite dead node: %v, want an IncompleteError", err)
	}
	if len(ie.Failed) != 1 || ie.Failed[0].Node != 2 {
		t.Errorf("failed = %v, want node 2", ie.Failed)
	}
	for _, r := range ie.RIDs {
		if r != 1 {
			t.Errorf("spurious hit %d from partial search", r)
		}
	}
}

func TestConcurrentClusterOps(t *testing.T) {
	ctx := context.Background()
	c := memCluster(t, 4)
	c.SetMaxLoad(FileRecords, 16)
	const goroutines = 8
	const perG = 200
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				key := uint64(g*perG + i)
				if err := c.Put(ctx, FileRecords, key, []byte{byte(g), byte(i)}); err != nil {
					errs <- err
					return
				}
				if _, ok, err := c.Get(ctx, FileRecords, key); err != nil || !ok {
					errs <- fmt.Errorf("key %d: %v %v", key, ok, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if c.coord.File(FileRecords).Size != goroutines*perG {
		t.Errorf("Size = %d, want %d", c.coord.File(FileRecords).Size, goroutines*perG)
	}
	// Every record readable afterwards.
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			key := uint64(g*perG + i)
			v, ok, err := c.Get(ctx, FileRecords, key)
			if err != nil || !ok || v[0] != byte(g) || v[1] != byte(i) {
				t.Fatalf("key %d wrong after concurrent load: %v %v %v", key, v, ok, err)
			}
		}
	}
}
