package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/esdds"
)

// verdict is the outcome of a result check.
type verdict struct {
	probes   int // gets and searches the check issued
	failures int
	first    error // first failure, for the report
}

func (v *verdict) fail(err error) {
	v.failures++
	if v.first == nil {
		v.first = err
	}
}

func (v *verdict) add(o verdict) {
	v.probes += o.probes
	v.failures += o.failures
	if v.first == nil {
		v.first = o.first
	}
}

// checkResults audits the store against the generated inputs once all
// streams ran in full: every live record reads back as its plaintext, every
// deleted record is gone, and every query of the pool returns at least the
// live records that contain it (false positives are the scheme's to make,
// misses and ghosts are not).
func checkResults(st kv, in *inputs, nWorkers int) verdict {
	var mu sync.Mutex
	var total verdict
	var wg sync.WaitGroup
	ctx := context.Background()
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var v verdict
			for i := w; i < len(in.live); i += nWorkers {
				if in.live[i] == recUnused {
					continue
				}
				v.probes++
				got, err := st.Get(ctx, in.rids[i])
				switch {
				case in.live[i] == recDeleted:
					if !errors.Is(err, esdds.ErrNotFound) {
						v.fail(fmt.Errorf("deleted rid %d: get returned %q, %v", in.rids[i], got, err))
					}
				case err != nil:
					v.fail(fmt.Errorf("live rid %d: get: %w", in.rids[i], err))
				case !bytes.Equal(got, in.content[i]):
					v.fail(fmt.Errorf("live rid %d: read back %q, want %q", in.rids[i], got, in.content[i]))
				}
			}
			mu.Lock()
			total.add(v)
			mu.Unlock()
		}(w)
	}
	wg.Wait()

	truth := newGroundTruth(in)
	deleted := make(map[uint64]bool)
	for i, s := range in.live {
		if s == recDeleted {
			deleted[in.rids[i]] = true
		}
	}
	for _, q := range in.queries {
		total.probes++
		got, err := st.Search(ctx, q, esdds.SearchFast)
		if err != nil {
			total.fail(fmt.Errorf("search %q: %w", q, err))
			continue
		}
		for _, rid := range truth.matches(q) {
			if j := sort.Search(len(got), func(j int) bool { return got[j] >= rid }); j == len(got) || got[j] != rid {
				total.fail(fmt.Errorf("search %q missed live rid %d", q, rid))
			}
		}
		for _, rid := range got {
			if deleted[rid] {
				total.fail(fmt.Errorf("search %q returned deleted rid %d", q, rid))
			}
		}
	}
	return total
}

// groundTruth answers "which live records contain q" without any of the
// program's code: the live plaintexts are laid end to end, newline
// separated, and scanned with bytes.Index.
type groundTruth struct {
	text   []byte
	starts []int    // offset of each live record in text, ascending
	rids   []uint64 // rid of each live record, same order
}

func newGroundTruth(in *inputs) *groundTruth {
	g := &groundTruth{}
	for i, s := range in.live {
		if s != recLive {
			continue
		}
		g.starts = append(g.starts, len(g.text))
		g.rids = append(g.rids, in.rids[i])
		g.text = append(g.text, in.content[i]...)
		g.text = append(g.text, '\n')
	}
	return g
}

// matches returns the rids of live records containing q, ascending by
// position and without duplicates. q must not contain a newline.
func (g *groundTruth) matches(q []byte) []uint64 {
	var out []uint64
	for off := 0; ; {
		i := bytes.Index(g.text[off:], q)
		if i < 0 {
			return out
		}
		rec := sort.SearchInts(g.starts, off+i+1) - 1
		out = append(out, g.rids[rec])
		if rec+1 == len(g.starts) {
			return out
		}
		off = g.starts[rec+1] // one hit per record is enough
	}
}
