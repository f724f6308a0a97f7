// Package loadgen is the production-traffic soak harness for the
// encrypted searchable SDDS: an open-loop load generator that drives a
// cluster through LH* growth under a configurable insert/search/delete
// mix with zipfian query popularity, measures end-to-end latency the
// coordinated-omission-safe way, audits the cluster for record loss
// afterwards, and turns the measurements into declarative SLO gates.
//
// The pieces compose as a pipeline:
//
//	Stream  — a deterministic (seeded) sequence of operations: which
//	          record to insert, which query to search, which record to
//	          delete. Identical seeds replay identical streams.
//	Runner  — the open-loop scheduler: Poisson arrivals at a target
//	          rate, a bounded in-flight window, and latency measured
//	          from each op's *scheduled* arrival time, so a stalled
//	          server inflates the recorded latencies instead of
//	          silently slowing the offered load (the coordinated
//	          omission trap).
//	Ledger  — the runner's record of what the cluster acknowledged;
//	          the ground truth the post-soak audit checks against.
//	Audit   — a full read-back of every acknowledged-live record (plus
//	          search spot checks), counting missing and corrupt
//	          records: the zero-loss verification behind `loss == 0`.
//	Report  — the BENCH_cluster.json schema: per-op quantiles,
//	          split/IAM/migration counters, a per-second timeline, and the
//	          audit verdict, merged into the file's profile history.
//	Gates   — declarative SLOs ("search.p99 < 250ms", "loss == 0",
//	          "search.p99 <= prev*1.5") evaluated against a report and
//	          the previous run's baseline.
//
// The paper (ICDE 2006 §6) evaluates the scheme with small-scale
// microbenchmarks; this package is how the reproduction measures the
// ROADMAP's "heavy traffic from millions of users" claim as a
// repeatable, gated scenario.
package loadgen

import (
	"context"
	"errors"
	"fmt"
)

// OpKind is the type of one generated operation.
type OpKind uint8

const (
	// OpInsert stores a fresh record.
	OpInsert OpKind = iota
	// OpSearch runs a substring search from the zipfian query pool.
	OpSearch
	// OpDelete removes a previously inserted record.
	OpDelete
)

// String implements fmt.Stringer; the names double as the op keys in
// Report.Ops and in gate metrics ("search.p99").
func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpSearch:
		return "search"
	case OpDelete:
		return "delete"
	default:
		return "unknown"
	}
}

// Op is one scheduled operation of a stream.
type Op struct {
	// Index is the op's position in the stream (0-based).
	Index int
	// Kind selects which Target method the runner calls.
	Kind OpKind
	// RID is the record identifier for inserts and deletes.
	RID uint64
	// Content is the record body for inserts.
	Content []byte
	// Query is the search substring for searches.
	Query []byte
}

// Mix fixes the operation mix as integer percentages summing to 100.
type Mix struct {
	InsertPct int
	SearchPct int
	DeletePct int
}

// DefaultMix is the soak default: insert-heavy so the file keeps
// growing (and splitting) for the whole run.
var DefaultMix = Mix{InsertPct: 70, SearchPct: 25, DeletePct: 5}

func (m Mix) validate() error {
	if m.InsertPct < 0 || m.SearchPct < 0 || m.DeletePct < 0 {
		return errors.New("loadgen: negative mix percentage")
	}
	if m.InsertPct+m.SearchPct+m.DeletePct != 100 {
		return fmt.Errorf("loadgen: mix %d/%d/%d does not sum to 100",
			m.InsertPct, m.SearchPct, m.DeletePct)
	}
	return nil
}

// String renders the mix as "insert/search/delete" percentages.
func (m Mix) String() string {
	return fmt.Sprintf("%d/%d/%d", m.InsertPct, m.SearchPct, m.DeletePct)
}

// ParseMix inverts Mix.String ("70/25/5").
func ParseMix(s string) (Mix, error) {
	var m Mix
	if _, err := fmt.Sscanf(s, "%d/%d/%d", &m.InsertPct, &m.SearchPct, &m.DeletePct); err != nil {
		return Mix{}, fmt.Errorf("loadgen: mix %q: want insert/search/delete percentages", s)
	}
	return m, m.validate()
}

// ErrNotFound is the sentinel a Target's Get and Delete must return
// (possibly wrapped) for an absent record, so the audit can tell
// "record lost" apart from "cluster unreachable".
var ErrNotFound = errors.New("loadgen: record not found")

// Target is the store surface the generator drives. esdds.Store
// satisfies it through a thin adapter fixing the search mode (see
// cmd/esdds-soak); tests drive fakes and raw sdds clusters.
type Target interface {
	Insert(ctx context.Context, rid uint64, content []byte) error
	Search(ctx context.Context, query []byte) ([]uint64, error)
	Delete(ctx context.Context, rid uint64) error
	Get(ctx context.Context, rid uint64) ([]byte, error)
}
