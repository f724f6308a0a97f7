package sdds

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"repro/internal/disperse"
	"repro/internal/transport"
	"repro/internal/wal"
)

// TestNodeLocalSplitJournalsOneRecord is the durable row of a node-local
// move: on two nodes, the split of bucket 0 into bucket 2 (both on node
// 0) journals exactly one record, the prepare header the coordinator
// sent, and nothing on node 1. The cross-node split before it still
// journals the handoff: prepare and commit on the source, absorb (every
// moved record) and commit on the target.
func TestNodeLocalSplitJournalsOneRecord(t *testing.T) {
	ctx := context.Background()
	mem := transport.NewMemory()
	place, err := NewPlacement(nodeIDs(2))
	if err != nil {
		t.Fatal(err)
	}
	var taps [2]*journalTap
	for i := range taps {
		st, err := wal.Open(wal.NewMemFS(), "node", wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		taps[i] = &journalTap{Store: st}
		n := NewNode(transport.NodeID(i), mem, place)
		if _, err := n.AttachStore(taps[i]); err != nil {
			t.Fatal(err)
		}
		mem.Register(transport.NodeID(i), n.Handler())
	}
	c := NewCluster(mem, place)
	c.SetMaxLoad(FileRecords, 1<<20)
	for k := uint64(0); k < 24; k++ {
		if err := c.Put(ctx, FileRecords, k, []byte(fmt.Sprintf("migval-%03d", k))); err != nil {
			t.Fatal(err)
		}
	}
	// split runs one split and returns the ops each node journaled for it.
	split := func() (hdr migrateHeader, journaled [2][][]byte) {
		t.Helper()
		var before [2]int
		for i, tap := range taps {
			before[i] = len(tap.frames)
		}
		f := c.coord.File(FileRecords)
		in, ok := splitPlan(&f)
		if !ok {
			t.Fatal("no split wanted")
		}
		if err := c.coord.split(ctx, FileRecords); err != nil {
			t.Fatal(err)
		}
		for i, tap := range taps {
			journaled[i] = tap.frames[before[i]:]
		}
		in.File = FileRecords
		in.MID = uint64(len(c.coord.miglog.Records()))
		return in.header(), journaled
	}
	ops := func(frames [][]byte) []uint8 {
		var out []uint8
		for _, fr := range frames {
			out = append(out, fr[0])
		}
		return out
	}

	c.SetMaxLoad(FileRecords, 8)
	hdr, journaled := split() // 0 → 1, node 0 → node 1
	if got := ops(journaled[0]); !bytes.Equal(got, []uint8{opMigratePrepare, opMigrateCommit}) {
		t.Errorf("cross-node split %+v journaled ops %v on its source, want prepare, commit", hdr, got)
	}
	if got := ops(journaled[1]); !bytes.Equal(got, []uint8{opMigrateAbsorb, opMigrateCommit}) {
		t.Errorf("cross-node split %+v journaled ops %v on its target, want absorb, commit", hdr, got)
	} else if m, err := decode[migrateAbsorbReq](journaled[1][0][1:]); err != nil || len(m.batch.records) != 12 {
		t.Errorf("cross-node absorb record holds %d records (%v), want the 12 moved", len(m.batch.records), err)
	}

	hdr, journaled = split() // 0 → 2, both on node 0
	if place.NodeOf(hdr.from) != 0 || place.NodeOf(hdr.to) != 0 {
		t.Fatalf("split %+v is not local to node 0", hdr)
	}
	want := append([]byte{opMigratePrepare}, encode(hdr)...)
	if len(journaled[0]) != 1 || !bytes.Equal(journaled[0][0], want) {
		t.Errorf("node-local split journaled %d records %x, want the one prepare %x (%d bytes)", len(journaled[0]), journaled[0], want, len(want))
	}
	if len(journaled[1]) != 0 {
		t.Errorf("node-local split journaled %d records on the other node", len(journaled[1]))
	}
}

// TestThreePhaseLocalMoveReplays opens node journals and checkpoints that a
// release running node-local moves in three phases wrote, built from
// TestWireBytesPinned's migration pins, on one node, so mid 1's split of
// bucket 0 into bucket 1 is node-local. A replayed prepare completes the
// move, and an absorb or commit behind it, or behind an image whose
// outgoing set it completes, applies nothing: each reaches the buckets
// and postings of the move applied live, and a coordinator that resumes
// mid 1 settles it. An abort replayed after a
// completed move, and an image in which the node holds both sets of mid
// 1, fail the open naming the migration.
func TestThreePhaseLocalMoveReplays(t *testing.T) {
	ctx := context.Background()
	place, err := NewPlacement(nodeIDs(1))
	if err != nil {
		t.Fatal(err)
	}
	pin := func(name string) []byte {
		b, err := hex.DecodeString(migrationPins[name])
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// onFile moves a migration request to another file: its file byte
	// follows the 8-byte MID and the kind.
	onFile := func(b []byte, file FileID) []byte {
		b = bytes.Clone(b)
		b[9] = byte(file)
		return b
	}
	val := func(file FileID, k uint64) []byte {
		if file == FileIndex {
			return encode(indexValue{firstIndex: uint32(k), pieces: []disperse.Piece{disperse.Piece(k), 7, disperse.Piece(k + 9)}})
		}
		return []byte(fmt.Sprintf("migval-%03d", k))
	}
	type frame struct {
		op      uint8
		payload []byte
	}
	type replay struct {
		name   string
		img    []byte // the checkpoint, if any
		frames []frame
	}
	// open journals img as a checkpoint (when set) and frames into a
	// store and attaches it to a new node.
	open := func(img []byte, frames []frame) (*Node, error) {
		t.Helper()
		fs := wal.NewMemFS()
		st, err := wal.Open(fs, "node", wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if img != nil {
			if err := st.Checkpoint(img); err != nil {
				t.Fatal(err)
			}
		}
		for _, f := range frames {
			if err := st.Journal(f.op, f.payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if st, err = wal.Open(fs, "node", wal.Options{}); err != nil {
			t.Fatal(err)
		}
		n := NewNode(0, nil, place)
		_, err = n.AttachStore(st)
		return n, err
	}

	for _, file := range []FileID{FileRecords, FileIndex} {
		var puts []frame
		ref := NewNode(0, nil, place)
		for k := uint64(0); k < 6; k++ {
			puts = append(puts, frame{opPut, encode(putReq{keyHeader: keyHeader{file: file, key: k}, value: val(file, k)})})
			if _, err := ref.Handler()(ctx, opPutBatch, batchReq(file, batchEntry{key: k, value: val(file, k)})); err != nil {
				t.Fatal(err)
			}
		}
		prepare := frame{opMigratePrepare, onFile(pin("prepare"), file)}
		if raw, err := ref.Handler()(ctx, prepare.op, prepare.payload); err != nil || !bytes.Equal(raw, encode(migratePrepareResp{status: migrateStatusCommitted})) {
			t.Fatalf("file %d: live prepare answered %x, %v", file, raw, err)
		}
		want := imageOf(ref)
		absorb := frame{opMigrateAbsorb, onFile(pin("absorb"), file)}
		commit := frame{opMigrateCommit, pin("commit")}
		cases := []replay{
			{"prepare", nil, append(puts[:6:6], prepare)},
			{"prepare+absorb", nil, append(puts[:6:6], prepare, absorb)},
			{"prepare+absorb+commit", nil, append(puts[:6:6], prepare, absorb, commit)},
		}
		if file == FileRecords {
			// The pinned image: keys 0 to 5 in bucket 0, mid 1 prepared.
			img := pin("image with migration section")
			cases = append(cases, replay{"image", img, nil}, replay{"image+absorb", img, []frame{absorb}},
				replay{"image+absorb+commit", img, []frame{absorb, commit}})
		}
		for _, tc := range cases {
			t.Run(fmt.Sprintf("file%d/%s", file, tc.name), func(t *testing.T) {
				n, err := open(tc.img, tc.frames)
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				if got := imageOf(n); !bytes.Equal(got, want) {
					t.Fatalf("replayed image %x, want the live move's %x", got, want)
				}
				checkPostingInvariants(t, []*Node{n})
				if st := indexStatsOf(n); file == FileIndex && st.entries != 6 {
					t.Errorf("index holds %d entries, want 6", st.entries)
				}

				// The coordinator still has mid 1 in flight.
				lg := NewMemMigrationLog()
				if mid, err := lg.Begin(MigrationIntent{Kind: MigrateSplit, File: file, From: 0, To: 1}); err != nil || mid != 1 {
					t.Fatalf("Begin = %d, %v", mid, err)
				}
				mem := transport.NewMemory()
				mem.Register(0, n.Handler())
				c := NewCluster(mem, place)
				if inFlight, err := c.AttachMigrationLog(lg); err != nil || inFlight != 1 {
					t.Fatalf("AttachMigrationLog = %d, %v", inFlight, err)
				}
				if resumed, err := c.coord.ResumeMigrations(ctx); err != nil || resumed != 1 {
					t.Fatalf("ResumeMigrations = %d, %v", resumed, err)
				}
				if s := c.coord.MigrationStats(); s.Committed != 1 || s.InFlight != 0 {
					t.Fatalf("after resume %+v, want mid 1 committed", s)
				}
				if b := c.coord.File(file).State.Buckets(); b != 2 {
					t.Fatalf("file has %d buckets after resume, want 2", b)
				}
				for k := uint64(0); k < 6; k++ {
					if v, ok, err := c.Get(ctx, file, k); err != nil || !ok || !bytes.Equal(v, val(file, k)) {
						t.Fatalf("get %d = %x, %v, %v", k, v, ok, err)
					}
				}
				if !bytes.Equal(imageOf(n), want) {
					t.Fatal("the resumed drive changed the node")
				}
			})
		}

		// An abort is its MID alone, as a commit is: mid 1's abort carries
		// the commit pin's bytes.
		abort := frame{opMigrateAbort, pin("commit")}
		if _, err := open(nil, append(puts[:6:6], prepare, abort)); err == nil || !strings.Contains(err.Error(), "migration 1") {
			t.Errorf("file %d: prepare then abort of a node-local move opened with %v, want an error naming migration 1", file, err)
		}
	}

	// The pinned image after the absorb too: bucket 1 holds keys 1, 3 and
	// 5, and the absorbed set repeats the outgoing one.
	img := migrationPins["image with migration section"]
	files, migs, _ := strings.Cut(img, "4d01")
	bucket1 := "00000056" + "0000000000000001" + "0000000000000001" + "00000003" +
		"0000000000000001" + "0000000a" + "6d696776616c2d303031" +
		"0000000000000003" + "0000000a" + "6d696776616c2d303033" +
		"0000000000000005" + "0000000a" + "6d696776616c2d303035"
	outgoing := migs[:len(migs)-16] // the outgoing count and record, before the empty absorbed and done sets
	dual, err := hex.DecodeString(files[:10] + "00000002" + files[18:] + bucket1 + "4d01" + outgoing + outgoing + "00000000")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := open(dual, nil); err == nil || !strings.Contains(err.Error(), "migration 1") {
		t.Errorf("an image holding both sets of mid 1 opened with %v, want an error naming migration 1", err)
	}
}
