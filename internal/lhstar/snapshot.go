package lhstar

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Snapshot serializes the bucket's contents deterministically (records
// sorted by key): header (address, level, count) followed by
// length-prefixed key/value pairs. Snapshots are the bucket sections of
// a node's WAL checkpoint image.
func (b *Bucket) Snapshot() []byte {
	keys := make([]uint64, 0, len(b.recs))
	for k := range b.recs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	size := 8 + 8 + 4
	for _, k := range keys {
		size += 8 + 4 + len(b.recs[k])
	}
	out := make([]byte, 0, size)
	out = binary.BigEndian.AppendUint64(out, b.addr)
	out = binary.BigEndian.AppendUint64(out, uint64(b.level))
	out = binary.BigEndian.AppendUint32(out, uint32(len(keys)))
	for _, k := range keys {
		out = binary.BigEndian.AppendUint64(out, k)
		v := b.recs[k]
		out = binary.BigEndian.AppendUint32(out, uint32(len(v)))
		out = append(out, v...)
	}
	return out
}

// RestoreBucket rebuilds a bucket from a snapshot. Trailing zero padding
// is tolerated: earlier versions restored buckets from zero-padded
// parity shards, and checkpoints taken then still carry it.
func RestoreBucket(snapshot []byte) (*Bucket, error) {
	if len(snapshot) < 20 {
		return nil, fmt.Errorf("lhstar: snapshot too short (%d bytes)", len(snapshot))
	}
	addr := binary.BigEndian.Uint64(snapshot)
	level := binary.BigEndian.Uint64(snapshot[8:])
	count := binary.BigEndian.Uint32(snapshot[16:])
	if level >= 64 { // key mod 2^64 has no address to compute
		return nil, fmt.Errorf("lhstar: snapshot level %d implausible", level)
	}
	b := NewBucket(addr, uint(level))
	off := 20
	for i := uint32(0); i < count; i++ {
		if off+12 > len(snapshot) {
			return nil, fmt.Errorf("lhstar: snapshot truncated at record %d", i)
		}
		key := binary.BigEndian.Uint64(snapshot[off:])
		vlen := int(binary.BigEndian.Uint32(snapshot[off+8:]))
		off += 12
		if off+vlen > len(snapshot) {
			return nil, fmt.Errorf("lhstar: snapshot truncated in record %d value", i)
		}
		b.recs[key] = append([]byte(nil), snapshot[off:off+vlen]...)
		off += vlen
	}
	return b, nil
}
