package esdds

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/sdds"
	"repro/internal/transport"
)

// roundBarrier holds every client write send (put, delete, put_batch)
// until want of them have arrived, then releases them together. A write
// that waits for one send's answer before the next send deadlocks on it
// and fails after two seconds; a write sent as one round passes.
type roundBarrier struct {
	transport.Transport
	mu      sync.Mutex
	want    int
	held    int
	writes  int
	release chan struct{}
}

func (b *roundBarrier) arm(want int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.want, b.held, b.writes = want, 0, 0
	b.release = make(chan struct{})
}

// sent returns the write sends since arm.
func (b *roundBarrier) sent() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.writes
}

func (b *roundBarrier) Send(ctx context.Context, node transport.NodeID, op uint8, payload []byte) ([]byte, error) {
	switch sdds.OpName(op) {
	case "put", "delete", "put_batch":
		b.mu.Lock()
		b.writes++
		hold := b.held < b.want
		release := b.release
		if hold {
			if b.held++; b.held == b.want {
				close(release)
			}
		}
		b.mu.Unlock()
		if hold {
			select {
			case <-release:
			case <-time.After(2 * time.Second):
				return nil, errors.New("write send held 2s: the op's other sends never joined its round")
			}
		}
	}
	return b.Transport.Send(ctx, node, op, payload)
}

// openBarrier opens a store on a 3-node memory cluster whose client
// sends pass through a roundBarrier.
func openBarrier(t *testing.T, cfg Config) (*Store, *roundBarrier) {
	t.Helper()
	cluster := NewMemoryCluster(3)
	t.Cleanup(func() { cluster.Close() })
	bar := &roundBarrier{Transport: cluster.inner.Transport()}
	cluster.inner = sdds.NewCluster(bar, cluster.place)
	store, err := Open(cluster, KeyFromPassphrase("one round"), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return store, bar
}

// writeNodes returns the distinct nodes the client image addresses a
// record's writes to: its record key, its M×K index keys and, with
// WordSearch, its word key.
func writeNodes(s *Store, rid uint64) []transport.NodeID {
	var nodes []transport.NodeID
	add := func(file sdds.FileID, key uint64) {
		n := s.cluster.Placement().NodeOf(s.cluster.Image(file).Address(key))
		if !slices.Contains(nodes, n) {
			nodes = append(nodes, n)
		}
	}
	add(sdds.FileRecords, rid)
	for j := 0; j < s.pipeline.Chunkings(); j++ {
		for k := 0; k < s.pipeline.K(); k++ {
			add(sdds.FileIndex, sdds.ComposeIndexKey(rid, j, k, s.pipeline.K(), s.slotBits))
		}
	}
	if s.words != nil {
		add(sdds.FileWords, rid)
	}
	return nodes
}

var oneRoundConfig = Config{ChunkSize: 4, Chunkings: 2, DispersionSites: 2, MaxBucketLoad: 4}

func oneRoundContent(rid uint64) []byte {
	return []byte(fmt.Sprintf("ONE ROUND RECORD %04d OF THE WRITE PATH", rid))
}

// TestStoreInsertOneRound: every Insert sends exactly one message to each
// node its record, index pieces and word blob live on, all at once —
// with and without WordSearch, and while the files split under it.
func TestStoreInsertOneRound(t *testing.T) {
	for _, words := range []bool{false, true} {
		t.Run(fmt.Sprintf("words=%v", words), func(t *testing.T) {
			cfg := oneRoundConfig
			cfg.WordSearch = words
			store, bar := openBarrier(t, cfg)
			ctx := context.Background()
			spread := false
			for rid := uint64(1); rid <= 40; rid++ {
				nodes := writeNodes(store, rid)
				spread = spread || len(nodes) > 1
				bar.arm(len(nodes))
				if err := store.Insert(ctx, rid, oneRoundContent(rid)); err != nil {
					t.Fatalf("insert %d: %v", rid, err)
				}
				if got := bar.sent(); got != len(nodes) {
					t.Fatalf("insert %d: %d client write sends for %d destination nodes", rid, got, len(nodes))
				}
			}
			if !spread {
				t.Fatal("no insert reached two nodes: the barrier proved nothing")
			}
			if st := store.Stats(); st.RecordSplits == 0 || st.IndexSplits == 0 {
				t.Fatalf("no split under the inserts: %+v", st)
			}
			for rid := uint64(1); rid <= 40; rid++ {
				if got, err := store.Get(ctx, rid); err != nil || string(got) != string(oneRoundContent(rid)) {
					t.Fatalf("get %d = %q, %v", rid, got, err)
				}
			}
		})
	}
}

// TestStoreDeleteOneRound: every Delete — of a present record or a
// missing one — is one round with one message per destination node,
// while the files merge under it.
func TestStoreDeleteOneRound(t *testing.T) {
	for _, words := range []bool{false, true} {
		t.Run(fmt.Sprintf("words=%v", words), func(t *testing.T) {
			cfg := oneRoundConfig
			cfg.WordSearch = words
			store, bar := openBarrier(t, cfg)
			ctx := context.Background()
			for rid := uint64(1); rid <= 40; rid++ {
				if err := store.Insert(ctx, rid, oneRoundContent(rid)); err != nil {
					t.Fatal(err)
				}
			}
			grown := store.Stats()
			for rid := uint64(1); rid <= 41; rid++ {
				nodes := writeNodes(store, rid)
				bar.arm(len(nodes))
				err := store.Delete(ctx, rid)
				if rid == 41 {
					if !errors.Is(err, ErrNotFound) {
						t.Fatalf("delete of a missing record: %v", err)
					}
				} else if err != nil {
					t.Fatalf("delete %d: %v", rid, err)
				}
				if got := bar.sent(); got != len(nodes) {
					t.Fatalf("delete %d: %d client write sends for %d destination nodes", rid, got, len(nodes))
				}
			}
			if store.cluster.Coordinator().File(sdds.FileIndex).Merges == 0 {
				t.Fatalf("no merge under the deletes (grown to %+v)", grown)
			}
			for _, f := range []sdds.FileID{sdds.FileRecords, sdds.FileIndex, sdds.FileWords} {
				if n := store.cluster.Coordinator().File(f).Size; n != 0 {
					t.Errorf("file %d holds %d entries after deleting every record", f, n)
				}
			}
		})
	}
}

// TestInsertPartialFailureContract: an Insert that fails on the record's
// node leaves orphan index pieces. Search may report the rid,
// SearchRecords skips it, and repeating the Insert completes it.
func TestInsertPartialFailureContract(t *testing.T) {
	cluster := NewMemoryCluster(3, WithFaultInjection(7))
	defer cluster.Close()
	store, err := Open(cluster, KeyFromPassphrase("k"), oneRoundConfig, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for rid := uint64(1); rid <= 20; rid++ {
		if err := store.Insert(ctx, rid, oneRoundContent(rid)); err != nil {
			t.Fatal(err)
		}
	}
	// Freeze growth so the failed round is the only thing that fails.
	cluster.inner.SetMaxLoad(sdds.FileRecords, 1<<20)
	cluster.inner.SetMaxLoad(sdds.FileIndex, 1<<20)

	// A record whose index pieces reach a node its record does not.
	rid := uint64(100)
	var recordNode transport.NodeID
	for ; ; rid++ {
		recordNode = store.cluster.Placement().NodeOf(store.cluster.Image(sdds.FileRecords).Address(rid))
		if len(writeNodes(store, rid)) > 1 {
			break
		}
	}
	content := []byte("ORPHANED UNTIL RETRIED XQZW")
	query := []byte("UNTIL RETRIED XQZW")

	cluster.Faults().Blackout(recordNode)
	err = store.Insert(ctx, rid, content)
	cluster.Faults().Restore(recordNode)
	// A node whose entries forward to the dead node fails too.
	var batchErr *sdds.BatchError
	if !errors.As(err, &batchErr) || !slices.ContainsFunc(batchErr.Failures, func(f sdds.NodeFailure) bool { return f.Node == recordNode }) {
		t.Fatalf("insert with the record's node down: %v, want a BatchError naming node %d", err, recordNode)
	}
	if _, err := store.Get(ctx, rid); !errors.Is(err, ErrNotFound) {
		t.Fatalf("record written despite its node failing: %v", err)
	}
	if _, err := store.Search(ctx, query, SearchFast); err != nil {
		t.Fatal(err) // the rid may or may not be among the hits
	}
	recs, err := store.SearchRecords(ctx, query, SearchFast)
	if err != nil {
		t.Fatalf("SearchRecords over an orphan index entry: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("SearchRecords = %v, want no records", recs)
	}

	if err := store.Insert(ctx, rid, content); err != nil {
		t.Fatalf("retried insert: %v", err)
	}
	rids, err := store.Search(ctx, query, SearchFast)
	if err != nil || !slices.Contains(rids, rid) {
		t.Fatalf("search after the retry = %v, %v; want %d", rids, err, rid)
	}
	recs, err = store.SearchRecords(ctx, query, SearchFast)
	if err != nil || len(recs) != 1 || recs[0].RID != rid || string(recs[0].Content) != string(content) {
		t.Fatalf("SearchRecords after the retry = %v, %v", recs, err)
	}
}

// TestOpenRejectsMoreSitesThanNodes: K dispersion sites need K nodes, or
// two pieces of every chunking share a node.
func TestOpenRejectsMoreSitesThanNodes(t *testing.T) {
	for _, c := range []struct {
		nodes, sites int
		ok           bool
	}{
		{1, 1, true},
		{1, 2, false},
		{2, 2, true},
		{3, 4, false},
		{4, 4, true},
		{5, 4, true},
	} {
		cluster := NewMemoryCluster(c.nodes)
		_, err := Open(cluster, KeyFromPassphrase("k"), Config{ChunkSize: 4, Chunkings: 2, DispersionSites: c.sites}, nil)
		cluster.Close()
		if c.ok && err != nil {
			t.Errorf("%d sites on %d nodes: %v", c.sites, c.nodes, err)
		}
		if !c.ok && !errors.Is(err, ErrTooFewNodes) {
			t.Errorf("%d sites on %d nodes: err = %v, want ErrTooFewNodes", c.sites, c.nodes, err)
		}
	}
}
