package sdds

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/lhstar"
	"repro/internal/transport"
	"repro/internal/wal"
)

// modPlacement is the placement of releases before the slice rule:
// bucket a on node a mod N, for every address a test reaches.
func modPlacement(ids []transport.NodeID) *Placement {
	return &Placement{nodes: append([]transport.NodeID(nil), ids...), slices: 1 << 63}
}

func nodeIDs(n int) []transport.NodeID {
	ids := make([]transport.NodeID, n)
	for i := range ids {
		ids[i] = transport.NodeID(i)
	}
	return ids
}

// TestPlacementTable pins the slice placement for 1–8 and 16 nodes:
// the busiest node holds at most 1/16 above its fair share of the 2^p
// slices; a pool size that divides 2^p keeps addr mod N; every split and
// merge at level ≥ p stays on one node; and the K pieces of one (rid, j)
// land on distinct nodes wherever addr mod N put them on distinct nodes.
func TestPlacementTable(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 16} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			ids := nodeIDs(n)
			place, err := NewPlacement(ids)
			if err != nil {
				t.Fatal(err)
			}
			slices := place.slices
			if slices < 16*uint64(n) || slices/2 >= 16*uint64(n) || slices&(slices-1) != 0 {
				t.Fatalf("2^p = %d is not the smallest power of two ≥ 16·%d", slices, n)
			}
			p := uint(0)
			for 1<<p < slices {
				p++
			}

			share := make(map[transport.NodeID]uint64)
			for a := uint64(0); a < slices; a++ {
				share[place.NodeOf(a)]++
			}
			for id, got := range share {
				if got*16*uint64(n) > 17*slices {
					t.Errorf("node %d holds %d of %d slices, above (1 + 1/16)/%d", id, got, slices, n)
				}
			}

			old := modPlacement(ids)
			if slices%uint64(n) == 0 {
				for a := uint64(0); a < 64*slices; a += 7 {
					if place.NodeOf(a) != old.NodeOf(a) {
						t.Fatalf("NodeOf(%d) = %d, want addr mod N = %d", a, place.NodeOf(a), old.NodeOf(a))
					}
				}
			}

			// Grow a file to 8·2^p buckets, then shrink it back to one.
			var st lhstar.State
			for st.Buckets() < 8*slices {
				from, to := st.NextSplit()
				if lvl := st.BucketLevel(from); lvl >= p && place.NodeOf(from) != place.NodeOf(to) {
					t.Fatalf("split %d → %d at level %d crosses nodes %d → %d", from, to, lvl, place.NodeOf(from), place.NodeOf(to))
				}
				st.AdvanceSplit()
			}
			for st.RetreatSplit() {
				// The merge undoes the split of bucket N at level I.
				into, closing := st.N, st.N+1<<st.I
				if st.I >= p && place.NodeOf(into) != place.NodeOf(closing) {
					t.Fatalf("merge %d → %d at level %d crosses nodes %d → %d", closing, into, st.I+1, place.NodeOf(closing), place.NodeOf(into))
				}
			}

			// Pieces of one (rid, j), over every file size up to 4·2^p.
			for _, k := range []int{2, 4} {
				slotBits := SlotBits(2, k)
				var st lhstar.State
				for st.Buckets() <= 4*slices {
					for rid := uint64(0); rid < 64; rid++ {
						for j := 0; j < 2; j++ {
							oldNodes := make(map[transport.NodeID]bool)
							newNodes := make(map[transport.NodeID]bool)
							for s := 0; s < k; s++ {
								a := st.Address(ComposeIndexKey(rid, j, s, k, slotBits))
								oldNodes[old.NodeOf(a)] = true
								newNodes[place.NodeOf(a)] = true
							}
							if len(newNodes) < len(oldNodes) {
								t.Fatalf("K=%d, %d buckets: pieces of (rid %d, j %d) on %d nodes, addr mod N put them on %d",
									k, st.Buckets(), rid, j, len(newNodes), len(oldNodes))
							}
						}
					}
					st.AdvanceSplit()
				}
			}
		})
	}
}

// writeDurableDir runs durable nodes over place, one MemFS each, puts
// keys records into a file that splits every two, and leaves the stores
// as a clean shutdown (a checkpoint each) or a crash (journal only)
// would.
func writeDurableDir(t *testing.T, place *Placement, keys int, graceful bool) map[transport.NodeID]*wal.MemFS {
	t.Helper()
	mem := transport.NewMemory()
	fss := make(map[transport.NodeID]*wal.MemFS)
	var nodes []*Node
	for _, id := range place.Nodes() {
		fs := wal.NewMemFS()
		st, err := wal.Open(fs, "node", wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		node := NewNode(id, mem, place)
		if _, err := node.AttachStore(st); err != nil {
			t.Fatal(err)
		}
		mem.Register(id, node.Handler())
		fss[id], nodes = fs, append(nodes, node)
	}
	c := NewCluster(mem, place)
	c.SetMaxLoad(FileRecords, 2)
	for k := uint64(0); k < uint64(keys); k++ {
		if err := c.Put(context.Background(), FileRecords, k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	if graceful {
		for _, n := range nodes {
			if err := n.CloseStore(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, fs := range fss {
		fs.Restart()
	}
	return fss
}

// reopenDurableDir reopens every node's store under place and returns
// each node's AttachStore error (a refused store is closed, as a
// cluster bring-up closes it; an accepted one is closed without the
// checkpoint a shutdown takes).
func reopenDurableDir(t *testing.T, place *Placement, fss map[transport.NodeID]*wal.MemFS) map[transport.NodeID]error {
	t.Helper()
	errs := make(map[transport.NodeID]error)
	for id, fs := range fss {
		st, err := wal.Open(fs, "node", wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		_, errs[id] = NewNode(id, transport.NewMemory(), place).AttachStore(st)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return errs
}

// storeFiles reads a node store's files, journal and checkpoint.
func storeFiles(t *testing.T, fs *wal.MemFS) [2][]byte {
	t.Helper()
	var out [2][]byte
	for i, name := range []string{"node/wal.log", "node/checkpoint"} {
		b, err := fs.ReadFile(name)
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

// TestReopenRefusesMisplacedBuckets reopens data dirs whose buckets
// placement puts elsewhere — one written by addr mod N past 2^p buckets,
// one reopened with its node list in another order, each after a clean
// shutdown and after a crash — and requires every node holding such a
// bucket to refuse with an error naming the file, the bucket, its node
// and placement's node, leaving every store file byte-identical.
func TestReopenRefusesMisplacedBuckets(t *testing.T) {
	ids := nodeIDs(3)
	grown, err := NewPlacement(ids)
	if err != nil {
		t.Fatal(err)
	}
	permuted, err := NewPlacement([]transport.NodeID{1, 2, 0})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name       string
		written    *Placement
		reopened   *Placement
		keys       int
		wantRefuse map[transport.NodeID]string
	}{
		// 200 records in buckets of two: 100 buckets, past the 64 slices.
		// Bucket 64 was on node 64 mod 3 = 1; its slice is 0, node 0's.
		{"grown-past-slices", modPlacement(ids), grown, 200, map[transport.NodeID]string{
			0: fmt.Sprintf("file %d bucket 66 is on node 0, placement gives node 2", FileRecords),
			1: fmt.Sprintf("file %d bucket 64 is on node 1, placement gives node 0", FileRecords),
			2: fmt.Sprintf("file %d bucket 65 is on node 2, placement gives node 1", FileRecords),
		}},
		{"permuted", grown, permuted, 20, map[transport.NodeID]string{
			0: fmt.Sprintf("file %d bucket 0 is on node 0, placement gives node 1", FileRecords),
			1: fmt.Sprintf("file %d bucket 1 is on node 1, placement gives node 2", FileRecords),
			2: fmt.Sprintf("file %d bucket 2 is on node 2, placement gives node 0", FileRecords),
		}},
	}
	for _, tc := range cases {
		for _, graceful := range []bool{true, false} {
			name := tc.name + "/crash"
			if graceful {
				name = tc.name + "/graceful"
			}
			t.Run(name, func(t *testing.T) {
				fss := writeDurableDir(t, tc.written, tc.keys, graceful)
				before := make(map[transport.NodeID][2][]byte)
				for id, fs := range fss {
					before[id] = storeFiles(t, fs)
				}
				errs := reopenDurableDir(t, tc.reopened, fss)
				for _, id := range ids {
					want, refuse := tc.wantRefuse[id]
					err := errs[id]
					switch {
					case !refuse && err != nil:
						t.Errorf("node %d refused: %v", id, err)
					case refuse && !errors.Is(err, ErrMisplacedBucket):
						t.Errorf("node %d: err = %v, want ErrMisplacedBucket", id, err)
					case refuse && !strings.Contains(err.Error(), want):
						t.Errorf("node %d: err = %v, want it to say %q", id, err, want)
					case refuse && errors.Is(err, wal.ErrCorrupt):
						t.Errorf("node %d: misplacement reported as corruption: %v", id, err)
					}
					after := storeFiles(t, fss[id])
					if !bytes.Equal(after[0], before[id][0]) || !bytes.Equal(after[1], before[id][1]) {
						t.Errorf("node %d: reopening rewrote its store files", id)
					}
				}
				// The same dirs reopen under the placement that wrote them.
				for id, err := range reopenDurableDir(t, tc.written, fss) {
					if err != nil {
						t.Errorf("node %d refused its own placement: %v", id, err)
					}
				}
			})
		}
	}
}
