package sdds

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/disperse"
)

// hotValue builds an index value whose stream leads with the given hot
// piece, so every such entry lands a posting in the hot piece's list.
func hotValue(hot disperse.Piece, rng *rand.Rand) []byte {
	n := 2 + rng.Intn(6)
	ps := make([]disperse.Piece, n)
	ps[0] = hot
	for i := 1; i < n; i++ {
		ps[i] = disperse.Piece(1000 + rng.Intn(50))
	}
	return encode(indexValue{firstIndex: 0, pieces: ps})
}

// TestCompactionTriggerUnderDeleteChurn drives sustained delete churn
// through one hot posting list and asserts the dead-fraction trigger
// actually fires, that the dead-ratio bound holds after every mutation,
// and that tombstone/compaction accounting is consistent throughout.
func TestCompactionTriggerUnderDeleteChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const hot = disperse.Piece(7)
	x := newFlatIndex(nil)

	// Fill the hot list well past compactMinLen.
	const n = 200
	for key := uint64(0); key < n; key++ {
		x.put(key, hotValue(hot, rng))
	}
	if len(x.postings(hot)) < compactMinLen {
		t.Fatalf("hot list too short to test: %d", len(x.postings(hot)))
	}

	// Churn: delete and re-insert random keys; every mutation must leave
	// the bound intact, and the trigger must fire along the way.
	for step := 0; step < 2000; step++ {
		key := uint64(rng.Intn(n))
		if step%3 == 0 {
			x.put(key, hotValue(hot, rng)) // overwrite: tombstone + fresh postings
		} else {
			x.remove(key)
		}
		checkFlatInvariants(t, 0, 0, x)
		if t.Failed() {
			t.Fatalf("invariant broken at step %d", step)
		}
		// Freed slots are reused: the entry table never outgrows the
		// key space, however long the churn runs.
		if len(x.ents) > n {
			t.Fatalf("step %d: entry table holds %d slots for %d keys", step, len(x.ents), n)
		}
	}
	st := x.stats()
	if st.compactions == 0 {
		t.Error("sustained delete churn never fired the compaction trigger")
	}
	if st.tombstones == 0 {
		t.Error("no tombstones recorded under delete churn")
	}
	t.Logf("churn: %d compactions, %d tombstones, live %d, dead %d",
		st.compactions, st.tombstones, st.live, st.dead)
}

// TestCompactionPreservesSearchResults pins the exact boundary: search
// results (probe matches) immediately before a compaction-triggering
// delete equal the results immediately after, minus exactly the deleted
// key's matches.
func TestCompactionPreservesSearchResults(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const hot = disperse.Piece(3)
	pat := []disperse.Piece{hot}

	// Construct a state one tombstone short of the trigger, then delete
	// one more key and require the compaction to have fired.
	x := newFlatIndex(nil)
	const n = 64
	for key := uint64(0); key < n; key++ {
		x.put(key, hotValue(hot, rng))
	}
	var deleted []uint64
	for key := uint64(0); key < n; key++ {
		before := probeMatches(x, pat)
		pre := x.stats().compactions
		x.remove(key)
		deleted = append(deleted, key)
		after := probeMatches(x, pat)
		var want []idxMatch
		for _, m := range before {
			if m.key != key {
				want = append(want, m)
			}
		}
		if !reflect.DeepEqual(after, want) {
			t.Fatalf("delete of %d (compactions %d→%d): matches %v, want %v",
				key, pre, x.stats().compactions, after, want)
		}
	}
	if x.stats().compactions == 0 {
		t.Fatal("deleting every key of a hot list never compacted it")
	}
	if got := x.postings(hot); got != nil {
		t.Fatalf("fully dead hot list still present: %v", got)
	}
	_ = deleted
}

// TestCompactionBoundsListLength asserts the structural consequence of
// the amortized policy: a posting list never holds more than 2x its
// live postings (once at compactable length), no matter the churn
// pattern — the property that keeps probe cost O(live).
func TestCompactionBoundsListLength(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const hot = disperse.Piece(11)
	x := newFlatIndex(nil)
	live := make(map[uint64]bool)
	for step := 0; step < 5000; step++ {
		key := uint64(rng.Intn(100))
		if rng.Intn(2) == 0 {
			x.put(key, hotValue(hot, rng))
			live[key] = true
		} else {
			x.remove(key)
			delete(live, key)
		}
		items := x.postings(hot)
		if len(items) < compactMinLen {
			continue
		}
		liveCount := 0
		for _, pt := range items {
			if pt.off != tombstoneOff {
				liveCount++
			}
		}
		if len(items) > 2*liveCount {
			t.Fatalf("step %d: list length %d exceeds 2x live count %d", step, len(items), liveCount)
		}
	}
}

// TestCompactionReleasesOversizedBacking checks that a once-hot list
// whose live set shrank far below its high-water mark gets its backing
// reallocated smaller instead of pinned forever.
func TestCompactionReleasesOversizedBacking(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const hot = disperse.Piece(13)
	x := newFlatIndex(nil)
	const n = 512
	for key := uint64(0); key < n; key++ {
		x.put(key, hotValue(hot, rng))
	}
	highWater := cap(x.post[hot].items)
	for key := uint64(0); key < n-4; key++ {
		x.remove(key)
	}
	if got := cap(x.post[hot].items); got >= highWater {
		t.Fatalf("backing capacity %d not released from high-water %d", got, highWater)
	}
	// The survivors must still be probeable.
	if got := len(probeMatches(x, []disperse.Piece{hot})); got == 0 {
		t.Fatal("surviving keys lost their postings")
	}
}

// TestIndexPutBatchDuplicateKeys pins last-writer-wins semantics for
// duplicate keys within one batch against the sequential reference.
func TestIndexPutBatchDuplicateKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	z := rand.NewZipf(rng, 1.2, 1, 31)
	for trial := 0; trial < 50; trial++ {
		var ents []kv
		for i := 0; i < 3+rng.Intn(12); i++ {
			ents = append(ents, kv{
				key:   uint64(rng.Intn(4)), // tiny key space → many duplicates
				value: encodeTestValue(rng, z),
			})
		}
		batched := newFlatIndex(nil)
		batched.putBatch(ents)
		seq := newFlatIndex(nil)
		for _, e := range ents {
			seq.put(e.key, e.value)
		}
		if got, want := dumpPostings(batched), dumpPostings(seq); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: batched postings %v, sequential %v", trial, got, want)
		}
		for key := uint64(0); key < 4; key++ {
			be, bok := batched.entry(key)
			se, sok := seq.entry(key)
			if bok != sok || !reflect.DeepEqual(be, se) {
				t.Fatalf("trial %d: entry %d: batched (%v,%v), sequential (%v,%v)",
					trial, key, be, bok, se, sok)
			}
		}
		checkFlatInvariants(t, 0, 0, batched)
	}
}

// TestIndexPutBatchArenaStability feeds a batch large enough to span
// many pieces and verifies every entry's carved piece slice still reads
// back correctly — the arena-never-moves contract of
// decodeIndexValueInto.
func TestIndexPutBatchArenaStability(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	z := rand.NewZipf(rng, 1.1, 1, 255)
	var ents []kv
	want := make(map[uint64]indexValue)
	for key := uint64(0); key < 500; key++ {
		v := encodeTestValue(rng, z)
		ents = append(ents, kv{key: key, value: v})
		iv, err := decode[indexValue](v)
		if err != nil {
			t.Fatal(err)
		}
		want[key] = iv
	}
	// A few foreign values interleaved: their peek fails, so they must
	// not consume arena space or shift anyone's carve.
	for i := 0; i < len(ents); i += 50 {
		ents[i] = kv{key: ents[i].key, value: []byte("junk")}
		delete(want, ents[i].key)
	}
	x := newFlatIndex(nil)
	x.putBatch(ents)
	for key, iv := range want {
		e, ok := x.entry(key)
		if !ok {
			t.Fatalf("key %d missing", key)
		}
		if e.firstIndex != iv.firstIndex || !reflect.DeepEqual(e.pieces, iv.pieces) {
			t.Fatalf("key %d: entry %v, want %v", key, e, iv)
		}
	}
	if st := x.stats(); st.entries != len(want) {
		t.Fatalf("%d entries indexed, want %d", st.entries, len(want))
	}
}

// TestFlatIndexDirectoryIsLazy pins the directory's lazy allocation: an
// index that never listed a posting — fresh, probed, fed only foreign
// or pieceless values, reset — holds no directory, and the first
// posting allocates it.
func TestFlatIndexDirectoryIsLazy(t *testing.T) {
	x := newFlatIndex(nil)
	x.remove(1)
	x.put(2, []byte("not an index value"))
	x.putBatch([]kv{{key: 3, value: []byte("foreign")}, {key: 4, value: encode(indexValue{})}})
	x.forEach(func(p disperse.Piece, _ []posting) { t.Errorf("piece %d listed", p) })
	if got := x.postings(0xFFFF); got != nil {
		t.Errorf("postings(0xFFFF) = %v on an index with no postings", got)
	}
	if st := x.stats(); st.entries != 1 || st.pieces != 0 || st.live != 0 {
		t.Errorf("stats = %+v, want the one pieceless entry and nothing listed", st)
	}
	x.remove(4)
	x.reset()
	checkFlatInvariants(t, 0, 0, x)
	if x.post != nil {
		t.Fatal("an index that never saw a posting allocated its directory")
	}
	x.put(5, encode(indexValue{pieces: []disperse.Piece{0xFFFF, 0}}))
	if x.post == nil {
		t.Fatal("the first posting allocated no directory")
	}
	if got := len(probeMatches(x, []disperse.Piece{0xFFFF, 0})); got != 1 {
		t.Fatalf("%d matches for the stored stream, want 1", got)
	}
	// A fully dead list returns to the zero postList, and reset empties
	// every list but keeps the directory.
	x.remove(5)
	checkFlatInvariants(t, 0, 0, x)
	x.put(6, encode(indexValue{pieces: []disperse.Piece{0, 0xFFFF}}))
	x.reset()
	checkFlatInvariants(t, 0, 0, x)
	if x.post == nil || x.post[0].items != nil || x.post[0xFFFF].items != nil {
		t.Fatal("reset left a list behind or dropped the directory")
	}
}
