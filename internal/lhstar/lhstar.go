// Package lhstar implements LH*, the scalable distributed linear-hashing
// data structure of Litwin, Neimat and Schneider [LNS96] that the paper
// uses as its storage substrate for both the record-store file and every
// index file.
//
// An LH* file is a set of buckets numbered 0..2^i+n−1, where (i, n) is
// the file state: i is the level and n the split pointer. A key C lives
// in bucket h_i(C) = C mod 2^i, except that buckets below the split
// pointer have already split and use h_{i+1}. The file grows one bucket
// at a time — bucket n splits into n and n+2^i — so the address space
// expands gracefully and each split moves only ~half of one bucket.
//
// Clients keep a possibly outdated image (i′, n′) of the file state and
// address buckets with it; a server that receives a key outside its
// range forwards it (at most twice, a proved LH* bound) and the final
// server sends the client an Image Adjustment Message (IAM) so the same
// mistake is never repeated. This package provides the pure addressing
// mathematics, the file state with its one growth rule (Overloaded,
// Underloaded), and the bucket structure. The coordinator that applies
// the rule and the nodes that hold the buckets live in internal/sdds.
package lhstar

import "fmt"

// Image is a client's view (i′, n′) of the file state. The zero Image
// (level 0, pointer 0 — one bucket) is the correct initial image.
type Image struct {
	// I is the image level i′.
	I uint
	// N is the image split pointer n′ < 2^I.
	N uint64
}

// Address computes the client-side address of key under the image:
// a = h_i′(C), corrected to h_{i′+1}(C) when a < n′.
func (img Image) Address(key uint64) uint64 {
	a := key % (1 << img.I)
	if a < img.N {
		a = key % (1 << (img.I + 1))
	}
	return a
}

// Buckets returns the number of buckets the image implies: 2^i′ + n′.
func (img Image) Buckets() uint64 { return 1<<img.I + img.N }

// Adjust applies an Image Adjustment Message: the address a and level j
// of a bucket that exists in the file. Following [LNS96], the client
// sets i′ = j−1 and n′ = a+1. Two normalizations keep the image provable
// from the IAM alone (so it never overshoots the true file state):
//
//   - a bucket with a ≥ 2^(j−1) is a new bucket of the current round, so
//     the provable split pointer is a+1−2^(j−1), not a+1;
//   - n′ = 2^i′ exactly means the round completed: level up.
func (img *Image) Adjust(a uint64, j uint) {
	if j == 0 {
		return
	}
	i := j - 1
	n := a + 1
	if n > 1<<i {
		n -= 1 << i
	} else if n == 1<<i {
		n = 0
		i++
	}
	// Never regress: only adopt the new image if it implies more
	// buckets.
	if (Image{I: i, N: n}).Buckets() > img.Buckets() {
		img.I = i
		img.N = n
	}
}

// ServerAddress runs the LH* server-side address computation at a bucket
// with address a and level j for a key: it returns the bucket the key
// belongs to from this bucket's perspective and whether a forward is
// needed. The classical guarantee is that following these forwards
// reaches the owning bucket in at most two hops from any starting point.
func ServerAddress(a uint64, j uint, key uint64) (next uint64, forward bool) {
	a1 := key % (1 << j)
	if a1 == a {
		return a, false
	}
	if j > 0 {
		a2 := key % (1 << (j - 1))
		if a2 > a && a2 < a1 {
			a1 = a2
		}
	}
	return a1, true
}

// State is the true file state held by the (logical) split coordinator.
type State struct {
	// I is the file level.
	I uint
	// N is the split pointer, 0 <= N < 2^I.
	N uint64
}

// Buckets returns the bucket count 2^I + N.
func (s State) Buckets() uint64 { return 1<<s.I + s.N }

// Image returns the exact image of the state.
func (s State) Image() Image { return Image{I: s.I, N: s.N} }

// Address computes the true address of a key.
func (s State) Address(key uint64) uint64 { return s.Image().Address(key) }

// BucketLevel returns the level of bucket a in state s: buckets below
// the split pointer or at/above 2^I have level I+1, others level I.
func (s State) BucketLevel(a uint64) uint {
	if a < s.N || a >= 1<<s.I {
		return s.I + 1
	}
	return s.I
}

// NextSplit returns the address of the next bucket to split (the split
// pointer) and the address of the bucket its upper half will move to.
func (s State) NextSplit() (from, to uint64) {
	return s.N, s.N + 1<<s.I
}

// AdvanceSplit moves the state past one split.
func (s *State) AdvanceSplit() {
	s.N++
	if s.N == 1<<s.I {
		s.N = 0
		s.I++
	}
}

// RetreatSplit undoes one split (file shrink). It reports false at the
// initial single-bucket state.
func (s *State) RetreatSplit() bool {
	if s.N == 0 {
		if s.I == 0 {
			return false
		}
		s.I--
		s.N = 1 << s.I
	}
	s.N--
	return true
}

// Overloaded reports whether a file of this state holding records
// records must split: while records > B·maxLoad, for B buckets.
func (s State) Overloaded(records, maxLoad int) bool {
	return records > int(s.Buckets())*maxLoad
}

// Underloaded reports whether a file of this state holding records
// records must merge: while B > 1 and records < (B−1)·⌊maxLoad/4⌋. The
// quarter load is the hysteresis that keeps a file at the split
// boundary from splitting and merging on alternate writes; a maxLoad
// below 4 makes it zero, so such a file never merges.
func (s State) Underloaded(records, maxLoad int) bool {
	return s.Buckets() > 1 && records < int(s.Buckets()-1)*(maxLoad/4)
}

// Bucket is one LH* bucket: a level-tagged key/value store.
type Bucket struct {
	addr  uint64
	level uint
	recs  map[uint64][]byte
}

// NewBucket creates an empty bucket with the given address and level.
func NewBucket(addr uint64, level uint) *Bucket {
	return &Bucket{addr: addr, level: level, recs: make(map[uint64][]byte)}
}

// Addr returns the bucket's address.
func (b *Bucket) Addr() uint64 { return b.addr }

// Level returns the bucket's level.
func (b *Bucket) Level() uint { return b.level }

// Len returns the number of records.
func (b *Bucket) Len() int { return len(b.recs) }

// Put stores a record, replacing any existing value. It reports whether
// the key was new.
func (b *Bucket) Put(key uint64, value []byte) bool {
	_, existed := b.recs[key]
	b.recs[key] = value
	return !existed
}

// Get retrieves a record's value.
func (b *Bucket) Get(key uint64) ([]byte, bool) {
	v, ok := b.recs[key]
	return v, ok
}

// Delete removes a record, reporting whether it existed.
func (b *Bucket) Delete(key uint64) bool {
	_, ok := b.recs[key]
	delete(b.recs, key)
	return ok
}

// Scan calls fn for every record until fn returns false. Iteration
// order is unspecified.
func (b *Bucket) Scan(fn func(key uint64, value []byte) bool) {
	for k, v := range b.recs {
		if !fn(k, v) {
			return
		}
	}
}

// SplitInto raises the bucket's level by one and moves every record that
// no longer belongs into the destination bucket (which must have address
// addr + 2^level and the new level). It returns the number of records
// moved — typically about half, the linear-hashing balance property.
func (b *Bucket) SplitInto(dst *Bucket) (moved int, err error) {
	newLevel := b.level + 1
	wantAddr := b.addr + 1<<b.level
	if dst.addr != wantAddr {
		return 0, fmt.Errorf("lhstar: split destination address %d, want %d", dst.addr, wantAddr)
	}
	if dst.level != newLevel {
		return 0, fmt.Errorf("lhstar: split destination level %d, want %d", dst.level, newLevel)
	}
	b.level = newLevel
	for k, v := range b.recs {
		if k%(1<<newLevel) != b.addr {
			dst.recs[k] = v
			delete(b.recs, k)
			moved++
		}
	}
	return moved, nil
}

// MergeFrom undoes a split: it absorbs all records of src (which must be
// this bucket's split image) and lowers this bucket's level.
func (b *Bucket) MergeFrom(src *Bucket) error {
	if b.level == 0 {
		return fmt.Errorf("lhstar: cannot merge into level-0 bucket")
	}
	wantAddr := b.addr + 1<<(b.level-1)
	if src.addr != wantAddr {
		return fmt.Errorf("lhstar: merge source address %d, want %d", src.addr, wantAddr)
	}
	for k, v := range src.recs {
		b.recs[k] = v
	}
	src.recs = make(map[uint64][]byte)
	b.level--
	return nil
}
