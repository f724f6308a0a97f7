package lhstar

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestImageAddressInitial(t *testing.T) {
	img := Image{}
	for _, k := range []uint64{0, 1, 7, 1 << 40} {
		if a := img.Address(k); a != 0 {
			t.Errorf("initial image Address(%d) = %d, want 0", k, a)
		}
	}
	if img.Buckets() != 1 {
		t.Errorf("initial Buckets = %d", img.Buckets())
	}
}

func TestImageAddressSplitPointer(t *testing.T) {
	// i=1, n=1: buckets 0,1,2. Keys ≡ 0 (mod 2) below the pointer use
	// h_2.
	img := Image{I: 1, N: 1}
	cases := []struct{ key, want uint64 }{
		{0, 0}, {2, 2}, {4, 0}, {6, 2}, // even keys split by h_2
		{1, 1}, {3, 1}, {5, 1}, {7, 1}, // odd keys stay at bucket 1
	}
	for _, c := range cases {
		if got := img.Address(c.key); got != c.want {
			t.Errorf("Address(%d) = %d, want %d", c.key, got, c.want)
		}
	}
	if img.Buckets() != 3 {
		t.Errorf("Buckets = %d, want 3", img.Buckets())
	}
}

func TestImageAdjustMonotone(t *testing.T) {
	img := Image{}
	img.Adjust(2, 2) // bucket 2, level 2 → i'=1, n'=3 → normalize: i'=2, n'=0? (3 >= 2^1)
	if img.Buckets() < 2 {
		t.Errorf("image did not grow: %+v", img)
	}
	before := img.Buckets()
	img.Adjust(0, 1) // stale IAM must not regress the image
	if img.Buckets() < before {
		t.Errorf("image regressed from %d to %d buckets", before, img.Buckets())
	}
	// j = 0 is a no-op.
	img2 := Image{I: 3, N: 2}
	img2.Adjust(5, 0)
	if img2 != (Image{I: 3, N: 2}) {
		t.Error("Adjust with level 0 changed image")
	}
}

func TestServerAddressOwnership(t *testing.T) {
	// Bucket 3 at level 2 owns keys ≡ 3 (mod 4).
	for _, key := range []uint64{3, 7, 11, 103} {
		next, fwd := ServerAddress(3, 2, key)
		if fwd || next != 3 {
			t.Errorf("key %d: next=%d fwd=%v, want owned", key, next, fwd)
		}
	}
	// Key 2 does not belong to bucket 3.
	if _, fwd := ServerAddress(3, 2, 2); !fwd {
		t.Error("key 2 should forward from bucket 3")
	}
}

func TestStateMachine(t *testing.T) {
	var s State
	if s.Buckets() != 1 {
		t.Fatal("initial state")
	}
	seq := []struct {
		buckets uint64
		i       uint
		n       uint64
	}{
		{2, 1, 0}, {3, 1, 1}, {4, 2, 0}, {5, 2, 1}, {6, 2, 2}, {7, 2, 3}, {8, 3, 0},
	}
	for _, want := range seq {
		s.AdvanceSplit()
		if s.Buckets() != want.buckets || s.I != want.i || s.N != want.n {
			t.Fatalf("after split: %+v, want %+v", s, want)
		}
	}
	for i := len(seq) - 2; i >= 0; i-- {
		if !s.RetreatSplit() {
			t.Fatal("RetreatSplit failed")
		}
		want := seq[i]
		if s.Buckets() != want.buckets {
			t.Fatalf("after retreat: %+v, want %d buckets", s, want.buckets)
		}
	}
	s = State{}
	if s.RetreatSplit() {
		t.Error("retreat from initial state should fail")
	}
}

func TestBucketLevel(t *testing.T) {
	s := State{I: 2, N: 1} // buckets 0..4; bucket 0 split, bucket 4 new
	cases := []struct {
		a    uint64
		want uint
	}{
		{0, 3}, {1, 2}, {2, 2}, {3, 2}, {4, 3},
	}
	for _, c := range cases {
		if got := s.BucketLevel(c.a); got != c.want {
			t.Errorf("BucketLevel(%d) = %d, want %d", c.a, got, c.want)
		}
	}
}

func TestBucketBasics(t *testing.T) {
	b := NewBucket(1, 1)
	if b.Addr() != 1 || b.Level() != 1 || b.Len() != 0 {
		t.Fatal("constructor fields")
	}
	if !b.Put(3, []byte("x")) {
		t.Error("first Put should report new")
	}
	if b.Put(3, []byte("y")) {
		t.Error("second Put should report replace")
	}
	v, ok := b.Get(3)
	if !ok || string(v) != "y" {
		t.Error("Get after replace")
	}
	if !b.Delete(3) || b.Delete(3) {
		t.Error("Delete semantics")
	}
}

func TestBucketSplitMerge(t *testing.T) {
	b := NewBucket(0, 0)
	for k := uint64(0); k < 100; k++ {
		b.Put(k, []byte{byte(k)})
	}
	dst := NewBucket(1, 1)
	moved, err := b.SplitInto(dst)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 50 || b.Len() != 50 || dst.Len() != 50 {
		t.Fatalf("moved %d, left %d, dst %d", moved, b.Len(), dst.Len())
	}
	if b.Level() != 1 {
		t.Error("source level not raised")
	}
	b.Scan(func(k uint64, _ []byte) bool {
		if k%2 != 0 {
			t.Fatalf("odd key %d left in bucket 0", k)
		}
		return true
	})
	// Merge back.
	if err := b.MergeFrom(dst); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 100 || dst.Len() != 0 || b.Level() != 0 {
		t.Error("merge did not restore")
	}
}

func TestSplitIntoValidation(t *testing.T) {
	b := NewBucket(0, 0)
	if _, err := b.SplitInto(NewBucket(2, 1)); err == nil {
		t.Error("wrong destination address accepted")
	}
	b2 := NewBucket(0, 0)
	if _, err := b2.SplitInto(NewBucket(1, 2)); err == nil {
		t.Error("wrong destination level accepted")
	}
	if err := NewBucket(0, 0).MergeFrom(NewBucket(1, 1)); err == nil {
		t.Error("merge into level-0 accepted")
	}
}

// walk addresses key from the image img in state s the way a client
// and the servers do: the client's guess, then each server's forward.
// It returns the owning bucket and the hops taken, failing the test past
// two, and applies the last server's IAM when a hop was needed.
func walk(t *testing.T, s State, img *Image, key uint64) (owner uint64, hops int) {
	t.Helper()
	a := img.Address(key)
	for {
		next, fwd := ServerAddress(a, s.BucketLevel(a), key)
		if !fwd {
			break
		}
		if hops++; hops > 2 {
			t.Fatalf("key %d: forwarding chain exceeded 2 hops", key)
		}
		a = next
	}
	if hops > 0 {
		img.Adjust(a, s.BucketLevel(a))
	}
	return a, hops
}

// grown returns the state a file holding records records reaches by
// splitting while it is overloaded.
func grown(records, maxLoad int) State {
	var s State
	for s.Overloaded(records, maxLoad) {
		s.AdvanceSplit()
	}
	return s
}

// TestStaleImageAlwaysReachesOwner is the LH* core theorem: a client
// with an arbitrarily stale image reaches the right bucket in at most
// two forward hops, and IAMs only improve the image, never past the
// true state.
func TestStaleImageAlwaysReachesOwner(t *testing.T) {
	s := grown(3000, 4)
	rng := rand.New(rand.NewSource(3))
	stale := &Image{}
	for i := 0; i < 3000; i++ {
		k := rng.Uint64() >> 8
		if owner, _ := walk(t, s, stale, k); owner != s.Address(k) {
			t.Fatalf("key %d reached bucket %d, owner is %d", k, owner, s.Address(k))
		}
		if stale.Buckets() > s.Buckets() {
			t.Fatalf("image overshoots: %d > %d", stale.Buckets(), s.Buckets())
		}
	}
	if stale.Buckets() == 1 {
		t.Error("image never adjusted despite forwards")
	}
}

// TestImageConvergence: once one pass over the keys has adjusted the
// image, a second pass needs no forward at all.
func TestImageConvergence(t *testing.T) {
	s := grown(500, 4)
	img := &Image{}
	first := 0
	for k := uint64(0); k < 500; k++ {
		_, hops := walk(t, s, img, k)
		first += hops
	}
	if first == 0 {
		t.Fatal("the initial image needed no forward")
	}
	for k := uint64(0); k < 500; k++ {
		if _, hops := walk(t, s, img, k); hops != 0 {
			t.Fatalf("converged image still forwarded key %d (%d hops)", k, hops)
		}
	}
}

func TestScan(t *testing.T) {
	b := NewBucket(0, 0)
	for k := uint64(0); k < 300; k++ {
		b.Put(k, []byte{byte(k)})
	}
	got := make(map[uint64]bool)
	b.Scan(func(k uint64, v []byte) bool {
		if got[k] || v[0] != byte(k) {
			t.Fatalf("key %d scanned twice or with the wrong value", k)
		}
		got[k] = true
		return true
	})
	if len(got) != 300 {
		t.Errorf("scanned %d records, want 300", len(got))
	}
	n := 0
	b.Scan(func(uint64, []byte) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Errorf("early stop scanned %d", n)
	}
}

// TestLoadFactorBounded: growing one record at a time, the rule keeps
// every file at ⌈records/maxLoad⌉ buckets — never above maxLoad records
// per bucket, and never a bucket more than that needs.
func TestLoadFactorBounded(t *testing.T) {
	var s State
	for n := 1; n <= 5000; n++ {
		for s.Overloaded(n, 16) {
			s.AdvanceSplit()
		}
		if want := uint64(max(1, (n+15)/16)); s.Buckets() != want {
			t.Fatalf("%d records: %d buckets, want %d", n, s.Buckets(), want)
		}
	}
}

// TestGrowthRule pins the edges of the split and merge comparisons.
func TestGrowthRule(t *testing.T) {
	five := State{I: 2, N: 1} // 5 buckets
	cases := []struct {
		s                     State
		records, maxLoad      int
		overloaded, underload bool
	}{
		{State{}, 4, 4, false, false},  // B·maxLoad exactly fits
		{State{}, 5, 4, true, false},   // one more splits
		{five, 40, 8, false, false},    // 5·8
		{five, 41, 8, true, false},     // 5·8 + 1
		{five, 8, 8, false, false},     // (5−1)·⌊8/4⌋ is not under
		{five, 7, 8, false, true},      // one fewer merges
		{State{}, 0, 4, false, false},  // one bucket never merges
		{State{}, 0, 16, false, false}, // at any maxLoad
		{five, 0, 1, false, false},     // maxLoad < 4: ⌊maxLoad/4⌋ = 0
		{five, 0, 2, false, false},
		{five, 0, 3, false, false},
		{five, 3, 4, false, true}, // maxLoad 4 merges below B−1
	}
	for _, c := range cases {
		if got := c.s.Overloaded(c.records, c.maxLoad); got != c.overloaded {
			t.Errorf("%+v.Overloaded(%d, %d) = %v", c.s, c.records, c.maxLoad, got)
		}
		if got := c.s.Underloaded(c.records, c.maxLoad); got != c.underload {
			t.Errorf("%+v.Underloaded(%d, %d) = %v", c.s, c.records, c.maxLoad, got)
		}
	}
}

// Property: client addressing with the exact image equals the state's
// own address function, for arbitrary states.
func TestAddressConsistencyQuick(t *testing.T) {
	prop := func(key uint64, iRaw uint8, nRaw uint64) bool {
		i := uint(iRaw % 20)
		n := nRaw % (1 << i)
		s := State{I: i, N: n}
		return s.Address(key) == s.Image().Address(key)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: the two-hop forwarding bound holds from the address any
// valid (lagging) client image computes, for any file configuration.
// LH* does not promise the bound from arbitrary buckets — only from
// image-derived guesses.
func TestTwoHopBoundQuick(t *testing.T) {
	prop := func(key uint64, iRaw uint8, nRaw uint64, imgIRaw uint8, imgNRaw uint64) bool {
		i := uint(iRaw%16) + 1
		n := nRaw % (1 << i)
		s := State{I: i, N: n}
		imgI := uint(imgIRaw) % (i + 1)
		imgN := imgNRaw % (1 << imgI)
		img := Image{I: imgI, N: imgN}
		if img.Buckets() > s.Buckets() {
			return true // not a lagging image; out of scope
		}
		a := img.Address(key)
		for hops := 0; hops <= 2; hops++ {
			level := s.BucketLevel(a)
			next, fwd := ServerAddress(a, level, key)
			if !fwd {
				return a == s.Address(key)
			}
			a = next
			if a >= s.Buckets() {
				return false
			}
		}
		return false // needed more than 2 hops
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestStateNextSplit(t *testing.T) {
	s := State{I: 2, N: 1}
	from, to := s.NextSplit()
	if from != 1 || to != 5 {
		t.Errorf("NextSplit = (%d, %d), want (1, 5)", from, to)
	}
}

func TestSnapshotEmptyBucket(t *testing.T) {
	b := NewBucket(3, 1)
	snap := b.Snapshot()
	got, err := RestoreBucket(snap)
	if err != nil {
		t.Fatal(err)
	}
	if got.Addr() != 3 || got.Level() != 1 || got.Len() != 0 {
		t.Error("empty snapshot round trip")
	}
	// Garbage level detected.
	bad := append([]byte(nil), snap...)
	bad[15] = 0xFF // level bytes
	if _, err := RestoreBucket(bad); err == nil {
		t.Error("implausible level accepted")
	}
}
