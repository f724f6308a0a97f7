package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"repro/internal/loadgen"
	"repro/internal/phonebook"
)

// opKind is an operation class of the public Store API.
type opKind uint8

const (
	opInsert opKind = iota
	opSearch
	opDelete
	opGet
	numKinds
)

var kindNames = [numKinds]string{"insert", "search", "delete", "get"}

// op is one generated operation. arg indexes inputs.content for insert,
// delete and get, and inputs.queries for search.
type op struct {
	kind opKind
	arg  int32
}

// spec fixes one workload's shape. Counts are for -seconds 10 -scale 1;
// preload does not grow with -seconds (it is the size of the file the
// timed phase runs against), ops does.
type spec struct {
	name    string
	why     string
	durable bool
	preload int
	ops     int
	mix     [numKinds]int // percent of timed ops per class
	probe   int           // post-phase zipfian searches when the mix has none
}

// The four workloads. Shapes follow ISSUE 11; counts are scaled so that one
// run (three set-ups, warm-up, timed phase, check) takes 20-30 s on the
// 2-core reference host.
var specs = []spec{
	{
		name: "ingest",
		why:  "100000 inserts into an empty memory-only file: client transform, batched index fan-out, node posting-index upkeep and LH* splits do all the work; no WAL, no timed searches",
		ops:  100000, mix: [numKinds]int{opInsert: 100}, probe: 12000,
	},
	{
		name: "ingest_durable",
		why:  "20000 inserts of the ingest stream with WithDataDir (fsync per append, checkpoints): the WAL dominates, so group commit shows here and a faster client transform should not",
		ops:  20000, mix: [numKinds]int{opInsert: 100}, probe: 12000, durable: true,
	},
	{
		name: "search",
		why:  "preload 25000, then 85000 SearchFast queries, zipf(1.1) over phone tails (few hits) and long surnames (many hits) 2:1: node probe+verify, 3-node broadcast, client combine; no inserts, no WAL",
		ops:  85000, mix: [numKinds]int{opSearch: 100}, preload: 25000,
	},
	{
		name: "mixed",
		why:  "preload 15000, then 100000 ops, 50% insert 30% search 10% delete 10% get, memory-only: one posting index maintained and probed at once, with tombstones and compaction live",
		ops:  100000, mix: [numKinds]int{opInsert: 50, opSearch: 30, opDelete: 10, opGet: 10}, preload: 15000,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// sized returns the spec with its counts scaled: ops by seconds/10*scale,
// preload and probe by scale alone.
func (s spec) sized(seconds, scale float64) spec {
	round := func(x float64) int { return int(math.Max(1, math.Round(x))) }
	s.ops = round(float64(s.ops) * seconds / 10 * scale)
	if s.preload > 0 {
		s.preload = round(float64(s.preload) * scale)
	}
	if s.probe > 0 {
		s.probe = round(float64(s.probe) * scale)
	}
	return s
}

const (
	zipfS = 1.1
	// maxNameQueries caps the surnames in the query pool; the phonebook
	// generator has about 90 of >= minSurname symbols, so in practice the
	// pool is 3 x that, not the 512 the issue sketched.
	maxNameQueries = 256
	minSurname     = 7
	// phoneTail is how many trailing symbols of a record a tail query takes:
	// the phone's last four digits and the "$$" terminator. Both alignment
	// series then start with a chunk that has the number's only high-entropy
	// digits in it, so the node's anchor probe is selective; a longer tail
	// would anchor on "-100" or "00-0" and probe a tenth of the file.
	phoneTail  = 6
	tailStride = 7919 // prime, so the walk visits every record before it repeats
)

// inputs is everything a run feeds the store, generated from the seed
// before any clock starts.
type inputs struct {
	rids    []uint64
	content [][]byte
	queries [][]byte
	// preload[w], timed[w] and probe[w] are worker w's streams. A record
	// index belongs to exactly one worker (index mod workers), so every
	// worker's stream is self-consistent whatever the interleaving.
	preload [][]op
	timed   [][]op
	probe   [][]op
	// live[i] is the state of record i after all streams ran in full.
	live []recState
}

type recState uint8

const (
	recUnused recState = iota
	recLive
	recDeleted
)

func generate(s spec, seed int64, workers int) (*inputs, error) {
	// The mix is drawn per op, so the insert count is binomial; the slack
	// is many standard deviations at every scale.
	inserts := s.ops * s.mix[opInsert] / 100
	n := s.preload + inserts
	if s.mix[opInsert] < 100 {
		n += inserts/20 + 64
	}
	entries := phonebook.Generate(n, seed)
	in := &inputs{
		rids:    make([]uint64, n),
		content: make([][]byte, n),
		live:    make([]recState, n),
	}
	for i, e := range entries {
		in.rids[i] = e.RID()
		in.content[i] = []byte(phonebook.FormatRecord(e))
	}
	in.queries = queryPool(entries)
	if len(in.queries) == 0 {
		return nil, fmt.Errorf("corpus of %d records yields no query", n)
	}
	zipf, err := loadgen.NewZipf(len(in.queries), zipfS)
	if err != nil {
		return nil, err
	}

	in.preload = make([][]op, workers)
	in.timed = make([][]op, workers)
	in.probe = make([][]op, workers)
	for w := 0; w < workers; w++ {
		rng := rand.New(rand.NewSource(seed + int64(w)*7919))
		next := w // next unused record index of this worker
		var mine []int32
		take := func() int32 {
			i := int32(next)
			next += workers
			in.live[i] = recLive
			mine = append(mine, i)
			return i
		}
		for next < s.preload {
			in.preload[w] = append(in.preload[w], op{opInsert, take()})
		}
		count := s.ops / workers
		if w < s.ops%workers {
			count++
		}
		ops := make([]op, 0, count)
		for len(ops) < count {
			k := pickKind(s.mix, rng.Intn(100))
			switch {
			case k == opSearch:
				ops = append(ops, op{opSearch, int32(zipf.Sample(rng))})
			case k == opInsert || len(mine) == 0:
				if next >= n {
					return nil, fmt.Errorf("workload %s: record budget of %d exhausted", s.name, n)
				}
				ops = append(ops, op{opInsert, take()})
			case k == opGet:
				ops = append(ops, op{opGet, mine[rng.Intn(len(mine))]})
			default:
				j := rng.Intn(len(mine))
				i := mine[j]
				mine[j] = mine[len(mine)-1]
				mine = mine[:len(mine)-1]
				in.live[i] = recDeleted
				ops = append(ops, op{opDelete, i})
			}
		}
		in.timed[w] = ops
		probes := s.probe / workers
		for i := 0; i < probes; i++ {
			in.probe[w] = append(in.probe[w], op{opSearch, int32(zipf.Sample(rng))})
		}
	}
	return in, nil
}

func pickKind(mix [numKinds]int, r int) opKind {
	for k, share := range mix {
		if r < share {
			return opKind(k)
		}
		r -= share
	}
	return opInsert
}

// queryPool interleaves two kinds of query, two tails then a surname:
//
//   - phone tails, the last phoneTail symbols of records picked at a fixed
//     stride: selective in their first chunk, a few tens of hits at most;
//   - the corpus's surnames of at least minSurname symbols, most frequent
//     first: hundreds of hits each on a full-size corpus.
//
// A zipfian draw over that order puts 74% of the searches on tails, so the
// median search latency sits well inside the few-hit class (the probe and
// the broadcast, the same work whatever the seed) instead of on the edge
// between the classes, where it would not repeat; throughput, a mean, is
// still set by the many-hit class, which takes most of the time.
//
// Neither kind depends on the seed: phone numbers are sequential whatever
// the seed, and the surname order follows the generator's fixed name
// weights. It has to be so. A node matches one 16-bit dispersed piece per
// site, so what a query costs depends on which popular chunks its pieces
// happen to collide with, and zipf gives the top query a fifth of all
// draws: with tails drawn per seed the median moved by a quarter from one
// seed to the next. What the seed varies is the names, hence every hit
// count, and the order of everything.
func queryPool(entries []phonebook.Entry) [][]byte {
	freq := make(map[string]int)
	for _, e := range entries {
		if s := e.LastName(); len(s) >= minSurname {
			freq[s]++
		}
	}
	names := make([]string, 0, len(freq))
	for s := range freq {
		names = append(names, s)
	}
	sort.Slice(names, func(i, j int) bool {
		if freq[names[i]] != freq[names[j]] {
			return freq[names[i]] > freq[names[j]]
		}
		return names[i] < names[j]
	})
	if len(names) > maxNameQueries {
		names = names[:maxNameQueries]
	}
	seen := make(map[string]bool)
	at := 0
	tail := func() []byte {
		for {
			at = (at + tailStride) % len(entries)
			r := phonebook.FormatRecord(entries[at])
			if t := r[len(r)-phoneTail:]; !seen[t] {
				seen[t] = true
				return []byte(t)
			}
		}
	}
	pool := make([][]byte, 0, 3*len(names))
	for _, s := range names {
		pool = append(pool, tail(), tail(), []byte(s))
	}
	return pool
}

// isTail reports whether query q of the pool is a phone tail.
func isTail(q int32) bool { return q%3 != 2 }

// streamHash fingerprints everything the store will be fed, in order, so
// two runs can prove they saw the same inputs.
func (in *inputs) streamHash() uint64 {
	h := fnv.New64a()
	var b [9]byte
	put := func(streams [][]op) {
		for _, ops := range streams {
			for _, o := range ops {
				b[0] = byte(o.kind)
				if o.kind == opSearch {
					h.Write(in.queries[o.arg])
				} else {
					binary.BigEndian.PutUint64(b[1:], in.rids[o.arg])
					h.Write(in.content[o.arg])
				}
				h.Write(b[:])
			}
		}
	}
	put(in.preload)
	put(in.timed)
	put(in.probe)
	return h.Sum64()
}
