package esdds

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/encode"
	"repro/internal/sdds"
)

// Codebook persistence. Stage-2 codebooks are trained on a corpus sample
// and must be bit-identical across every client of a store — otherwise
// one client's index pieces won't match another client's queries. Open
// trains a fresh codebook when given a corpus; these helpers let the
// first client persist the trained codebook and later clients load it
// instead of retraining.

// WriteCodebook serializes the store's Stage-2 codebook. It fails when
// the store was opened without Stage-2 encoding.
func (s *Store) WriteCodebook(w io.Writer) error {
	cb := s.codebook()
	if cb == nil {
		return errors.New("esdds: store has no Stage-2 codebook")
	}
	_, err := cb.WriteTo(w)
	return err
}

func (s *Store) codebook() *encode.Codebook {
	p := s.pipeline.Params()
	if p.SymbolCodebook != nil {
		return p.SymbolCodebook
	}
	return p.ChunkCodebook
}

// OpenWithCodebook is Open for follow-up clients: instead of a training
// corpus it takes a codebook previously saved with WriteCodebook. The
// Config must request the same kind of encoding (SymbolCodes or
// ChunkCodes) the codebook was trained for; counts and group sizes are
// cross-checked.
func OpenWithCodebook(cluster *Cluster, key Key, cfg Config, codebook io.Reader) (*Store, error) {
	cb, err := encode.ReadCodebook(codebook)
	if err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	switch {
	case cfg.SymbolCodes > 0:
		if cb.GroupSize() != 1 {
			return nil, fmt.Errorf("esdds: codebook group size %d, want 1 for SymbolCodes", cb.GroupSize())
		}
		if cb.N() != cfg.SymbolCodes {
			return nil, fmt.Errorf("esdds: codebook has %d codes, config wants %d", cb.N(), cfg.SymbolCodes)
		}
	case cfg.ChunkCodes > 0:
		if cb.GroupSize() != cfg.ChunkSize {
			return nil, fmt.Errorf("esdds: codebook group size %d, want ChunkSize %d", cb.GroupSize(), cfg.ChunkSize)
		}
		if cb.N() != cfg.ChunkCodes {
			return nil, fmt.Errorf("esdds: codebook has %d codes, config wants %d", cb.N(), cfg.ChunkCodes)
		}
	default:
		return nil, errors.New("esdds: config requests no Stage-2 encoding; use Open")
	}
	return openInternal(cluster, key, cfg, cb)
}

// SearchShort implements the paper's §2.3 workaround for queries one
// symbol shorter than the chunk size: the query is expanded with every
// alphabet symbol and the union of the results returned. The paper notes
// this is "wasteful and might pose a security risk if an attacker snoops
// network traffic" — it issues |alphabet| searches whose union
// over-approximates the true result set. alphabet defaults to the
// printable upper-case set used by the directory corpus when nil.
//
// A probe that some nodes do not answer ends the expansion with an
// *IncompleteError whose RIDs are the union gathered so far, still a
// subset of the full answer.
func (s *Store) SearchShort(ctx context.Context, substring []byte, alphabet []byte) ([]uint64, error) {
	if len(alphabet) == 0 {
		alphabet = []byte(" &'-ABCDEFGHIJKLMNOPQRSTUVWXYZ")
	}
	want := s.MinQueryLen() - 1
	if len(substring) != want {
		return nil, fmt.Errorf("esdds: SearchShort needs exactly %d symbols (MinQueryLen-1), got %d",
			want, len(substring))
	}
	// A record may also end with the short query as its suffix (no
	// following symbol). Those occurrences sit against the zero-padded
	// tail, so the padding symbol 0 is probed last.
	probes := append(slices.Clip(alphabet), 0)
	var union []uint64
	q := append(slices.Clip(substring), 0)
	for i, c := range probes {
		q[len(substring)] = c
		query, err := s.pipeline.BuildQuery(q, false)
		if err != nil {
			if i == len(alphabet) {
				// Only a Stage-2 codebook with the strict unknown-group
				// policy (encode.UnknownError, loadable through
				// OpenWithCodebook) refuses a query: when no training
				// group held the padding symbol, the store cannot express
				// the suffix probe at all.
				break
			}
			return nil, err
		}
		rids, err := s.cluster.Search(ctx, sdds.FileIndex, s.pipeline, query, SearchFast.internal())
		var ie *IncompleteError
		if errors.As(err, &ie) {
			ie.RIDs = sortedSet(append(union, ie.RIDs...))
		}
		if err != nil {
			return nil, err
		}
		union = append(union, rids...)
	}
	return sortedSet(union), nil
}

func sortedSet(rids []uint64) []uint64 {
	slices.Sort(rids)
	return slices.Compact(rids)
}
