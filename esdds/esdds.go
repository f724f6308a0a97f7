// Package esdds is the public API of the encrypted, content-searchable
// scalable distributed data structure (Schwarz, Tsui, Litwin — ICDE
// 2006). A Store keeps records in two SDDS files spread across storage
// nodes:
//
//   - the record-store file holds every record under strong
//     authenticated encryption (AES-CTR with a synthetic IV and
//     HMAC-SHA256), under which nothing is searchable;
//   - the index file holds, per record, M chunked / lossily-encoded /
//     ECB-encrypted / dispersed index records that support exact
//     substring search over ciphertext.
//
// All key material stays in the client; storage nodes execute searches
// over opaque pieces. A search broadcasts encrypted query series to all
// nodes in parallel, combines the per-site hits (all K dispersion sites
// of a chunking must agree at one offset), applies the chosen
// verification mode, and finally fetches and decrypts the matching
// records.
//
// Quick start:
//
//	cluster := esdds.NewMemoryCluster(4)
//	store, _ := esdds.Open(cluster, esdds.KeyFromPassphrase("secret"),
//	    esdds.Config{ChunkSize: 4, Chunkings: 2}, nil)
//	store.Insert(ctx, 7, []byte("SCHWARZ THOMAS"))
//	rids, _ := store.Search(ctx, []byte("SCHWARZ"), esdds.SearchFast)
package esdds

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/chunk"
	"repro/internal/cipherx"
	"repro/internal/core"
	"repro/internal/disperse"
	"repro/internal/encode"
	"repro/internal/sdds"
	"repro/internal/wordindex"
)

// Key is a 256-bit client master key. All subkeys (record encryption,
// index ECB, dispersal matrix) are derived from it; it never leaves the
// client process.
type Key = cipherx.Key

// KeyFromPassphrase derives a Key from a passphrase (for examples and
// tools; supply uniformly random keys in production).
func KeyFromPassphrase(p string) Key { return cipherx.KeyFromPassphrase(p) }

// KeyFromBytes builds a Key from exactly 32 bytes.
func KeyFromBytes(b []byte) (Key, error) { return cipherx.KeyFromBytes(b) }

// MatrixKind selects the Stage-3 dispersal matrix family.
type MatrixKind uint8

const (
	// MatrixCauchy: provably nonsingular, all coefficients nonzero (the
	// paper's recommendation). Needs 2K < 2^(chunkBits/K).
	MatrixCauchy MatrixKind = iota
	// MatrixVandermonde: square Vandermonde matrix.
	MatrixVandermonde
	// MatrixRandomDense: key-derived random nonsingular matrix with no
	// zero entries.
	MatrixRandomDense
	// MatrixRandom: key-derived random nonsingular matrix (works for
	// every valid geometry; the paper's Table-2 construction).
	MatrixRandom
)

func (m MatrixKind) internal() (disperse.MatrixKind, error) {
	switch m {
	case MatrixCauchy:
		return disperse.MatrixCauchy, nil
	case MatrixVandermonde:
		return disperse.MatrixVandermonde, nil
	case MatrixRandomDense:
		return disperse.MatrixRandomDense, nil
	case MatrixRandom:
		return disperse.MatrixRandom, nil
	default:
		return 0, fmt.Errorf("esdds: unknown matrix kind %d", m)
	}
}

// SearchMode selects how thoroughly a search verifies hits across
// chunkings. All modes already require the K dispersion sites of each
// chunking to agree.
type SearchMode uint8

const (
	// SearchFast sends the minimal alignment series (S/M of them) and
	// accepts any single chunking hit — cheapest, most false positives
	// (§2.5 semantics).
	SearchFast SearchMode = iota
	// SearchVerified sends all S alignment series and requires every
	// chunking to report a hit (§2.3 semantics).
	SearchVerified
	// SearchExact additionally requires all chunkings to agree on one
	// occurrence position — with no lossy encoding this eliminates index
	// false positives entirely.
	SearchExact
)

func (m SearchMode) internal() core.VerifyMode {
	switch m {
	case SearchVerified:
		return core.VerifyAll
	case SearchExact:
		return core.VerifyAligned
	default:
		return core.VerifyAny
	}
}

// String implements fmt.Stringer.
func (m SearchMode) String() string {
	switch m {
	case SearchFast:
		return "fast"
	case SearchVerified:
		return "verified"
	case SearchExact:
		return "exact"
	default:
		return "unknown"
	}
}

// Config fixes the index geometry and hardening of one Store.
type Config struct {
	// ChunkSize is S, the symbols per index chunk. Required, >= 1.
	ChunkSize int
	// Chunkings is M, the number of shifted chunkings stored per record
	// (1 <= M <= S, M | S). More chunkings mean more storage and fewer
	// false positives. Default: ChunkSize (the basic scheme).
	Chunkings int
	// DropPartialChunks suppresses padded head/tail chunks (the §2.1
	// countermeasure); matches overlapping the record edges are then not
	// found.
	DropPartialChunks bool
	// SymbolCodes, when nonzero, trains a Stage-2 symbol-level codebook
	// with this many code values on the training corpus passed to Open.
	// Mutually exclusive with ChunkCodes.
	SymbolCodes int
	// ChunkCodes, when nonzero, trains a Stage-2 chunk-level codebook
	// (groups of ChunkSize symbols → one of ChunkCodes values).
	ChunkCodes int
	// DispersionSites is K, the number of Stage-3 dispersion sites per
	// chunk. Default 1 (no dispersion). K must divide the packed chunk
	// width in bits.
	DispersionSites int
	// Matrix selects the dispersal matrix family. Default MatrixRandom.
	Matrix MatrixKind
	// MaxBucketLoad tunes the LH* split threshold (records per bucket) of
	// the record, index and word files. Default sdds.DefaultMaxLoad.
	MaxBucketLoad int
	// WordSearch additionally maintains a word-token index ([SWP00]
	// adaptation) enabling exact whole-word search via SearchWord.
	WordSearch bool
}

func (c *Config) fillDefaults() {
	if c.Chunkings == 0 {
		c.Chunkings = c.ChunkSize
	}
	if c.DispersionSites == 0 {
		c.DispersionSites = 1
	}
}

// Store is an open encrypted searchable store bound to a cluster.
type Store struct {
	cluster  *sdds.Cluster
	pipeline *core.Pipeline
	records  *cipherx.RecordCipher
	words    *wordindex.Index // nil unless Config.WordSearch
	slotBits uint
}

// ErrNeedTrainingCorpus reports a Config requesting Stage-2 encoding
// without training data.
var ErrNeedTrainingCorpus = errors.New("esdds: Stage-2 encoding requires a training corpus")

// ErrTooFewNodes reports more dispersion sites than nodes, which would
// keep two of a chunk's K pieces on one node.
var ErrTooFewNodes = errors.New("esdds: DispersionSites exceeds the cluster's node count")

// ErrNotFound reports a missing record.
var ErrNotFound = errors.New("esdds: record not found")

// Open binds a Store to a cluster under the given master key. The
// trainingCorpus (a representative sample of record contents) is
// required when the config enables Stage-2 lossy encoding; the trained
// codebook must be identical across clients, so persist it with
// Store.WriteCodebook and open follow-up clients with OpenWithCodebook.
func Open(cluster *Cluster, key Key, cfg Config, trainingCorpus [][]byte) (*Store, error) {
	cfg.fillDefaults()
	if cfg.SymbolCodes > 0 && cfg.ChunkCodes > 0 {
		return nil, errors.New("esdds: SymbolCodes and ChunkCodes are mutually exclusive")
	}
	var cb *encode.Codebook
	var err error
	switch {
	case cfg.SymbolCodes > 0:
		if len(trainingCorpus) == 0 {
			return nil, ErrNeedTrainingCorpus
		}
		cb, err = encode.Train(trainingCorpus, 1, cfg.SymbolCodes)
	case cfg.ChunkCodes > 0:
		if len(trainingCorpus) == 0 {
			return nil, ErrNeedTrainingCorpus
		}
		cb, err = encode.Train(trainingCorpus, cfg.ChunkSize, cfg.ChunkCodes)
	}
	if err != nil {
		return nil, err
	}
	return openInternal(cluster, key, cfg, cb)
}

// openInternal finishes Open with an already-trained (or absent)
// Stage-2 codebook. cfg must already have defaults filled.
func openInternal(cluster *Cluster, key Key, cfg Config, cb *encode.Codebook) (*Store, error) {
	kind, err := cfg.Matrix.internal()
	if err != nil {
		return nil, err
	}
	params := core.Params{
		Chunk: chunk.Params{
			S:           cfg.ChunkSize,
			M:           cfg.Chunkings,
			DropPartial: cfg.DropPartialChunks,
		},
		DisperseK:  cfg.DispersionSites,
		MatrixKind: kind,
		Key:        cipherx.DeriveKey(key, "index-file"),
	}
	switch {
	case cfg.SymbolCodes > 0:
		params.SymbolCodebook = cb
	case cfg.ChunkCodes > 0:
		params.ChunkCodebook = cb
	}
	pl, err := core.NewPipeline(params)
	if err != nil {
		return nil, err
	}
	if nodes := len(cluster.inner.Placement().Nodes()); cfg.DispersionSites > nodes {
		return nil, fmt.Errorf("%w: %d sites on %d nodes", ErrTooFewNodes, cfg.DispersionSites, nodes)
	}
	for _, id := range []sdds.FileID{sdds.FileRecords, sdds.FileIndex, sdds.FileWords} {
		cluster.inner.Coordinator().SetMaxLoad(id, cfg.MaxBucketLoad) // ignores a load <= 0
	}
	st := &Store{
		cluster:  cluster.inner,
		pipeline: pl,
		records:  cipherx.NewRecordCipher(cipherx.DeriveKey(key, "record-file")),
		slotBits: sdds.SlotBits(pl.Chunkings(), pl.K()),
	}
	if cfg.WordSearch {
		st.words = wordindex.New(cipherx.DeriveKey(key, "word-file"), nil)
	}
	return st, nil
}

// MinQueryLen returns the minimum searchable substring length under
// SearchFast. SearchVerified/SearchExact need 2*ChunkSize−1 symbols.
func (s *Store) MinQueryLen() int { return s.pipeline.MinQueryLen() }

// MinQueryLenFor returns the minimum substring length for a mode.
func (s *Store) MinQueryLenFor(mode SearchMode) int {
	if mode == SearchFast {
		return s.pipeline.MinQueryLen()
	}
	return 2*s.pipeline.Params().Chunk.S - 1
}

func ridAD(rid uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], rid)
	return b[:]
}

// Insert stores the sealed content, its M×K index pieces and, with
// WordSearch, its word blob in one round, one message per storage node.
// A failed Insert may have applied any part; repeating it completes it.
func (s *Store) Insert(ctx context.Context, rid uint64, content []byte) error {
	sealed := s.records.Seal(ridAD(rid), content)
	recs, err := s.pipeline.BuildIndex(rid, content)
	if err != nil {
		return err
	}
	var words []byte
	if s.words != nil {
		words = wordindex.Blob(s.words.Tokens(content))
	}
	return s.cluster.InsertRecord(ctx, rid, sealed, recs, s.pipeline.K(), s.slotBits, words)
}

// Get fetches and decrypts a record.
func (s *Store) Get(ctx context.Context, rid uint64) ([]byte, error) {
	sealed, ok, err := s.cluster.Get(ctx, sdds.FileRecords, rid)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, ErrNotFound
	}
	return s.records.Open(ridAD(rid), sealed)
}

// Delete removes a record, its index pieces and word blob in one round,
// the latter two even when the record is missing (ErrNotFound), which
// clears what a failed Insert left. Repeating a failed Delete completes it.
func (s *Store) Delete(ctx context.Context, rid uint64) error {
	found, err := s.cluster.DeleteRecord(ctx, rid, s.pipeline.Chunkings(), s.pipeline.K(), s.slotBits, s.words != nil)
	if err == nil && !found {
		return ErrNotFound
	}
	return err
}

// Search returns the RIDs of records whose content (appears to) contain
// the substring. Depending on the mode and Stage-2 lossiness the result
// may include false positives, but never misses a true occurrence.
//
// A node that does not answer — down, partitioned or under repair — is a
// failed node: Search returns an *IncompleteError naming it, whose RIDs
// are the answering nodes' matches. That is a subset of the full answer;
// take it with errors.As where a best-effort answer will do. A search
// waits out a split or merge in progress, so it never misses a moved record.
func (s *Store) Search(ctx context.Context, substring []byte, mode SearchMode) ([]uint64, error) {
	query, err := s.pipeline.BuildQuery(substring, mode != SearchFast)
	if err != nil {
		return nil, err
	}
	return s.cluster.Search(ctx, sdds.FileIndex, s.pipeline, query, mode.internal())
}

// IncompleteError is the error Search, SearchWord, SearchShort and
// SearchRecords return when some nodes did not answer. RIDs holds what
// the answering nodes matched, a subset of the full answer; Failed names
// each silent node with its error.
type IncompleteError = sdds.IncompleteError

// Record is one decrypted search result.
type Record struct {
	RID     uint64
	Content []byte
}

// SearchRecords runs Search, fetches and decrypts every hit, and keeps
// the records whose plaintext contains the substring — the full client
// flow of the paper's Figure 3 (index sites report RIDs, the client
// pulls the sealed records from the record store site) with the scheme's
// false positives removed. A hit whose record is missing (a failed
// Insert's orphan) is skipped.
func (s *Store) SearchRecords(ctx context.Context, substring []byte, mode SearchMode) ([]Record, error) {
	rids, err := s.Search(ctx, substring, mode)
	if err != nil {
		return nil, err
	}
	out := make([]Record, 0, len(rids))
	for _, rid := range rids {
		content, err := s.Get(ctx, rid)
		if errors.Is(err, ErrNotFound) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("esdds: fetching hit %d: %w", rid, err)
		}
		if bytes.Contains(content, substring) {
			out = append(out, Record{RID: rid, Content: content})
		}
	}
	return out, nil
}

// Stats reports the store's SDDS state: bucket counts and split/IAM
// counters per file.
type Stats struct {
	RecordBuckets uint64
	IndexBuckets  uint64
	RecordSplits  int
	IndexSplits   int
	IAMs          int
}

// Stats returns operational counters.
func (s *Store) Stats() Stats {
	rs, riam := s.cluster.Stats(sdds.FileRecords)
	is, iiam := s.cluster.Stats(sdds.FileIndex)
	return Stats{
		RecordBuckets: s.cluster.Coordinator().File(sdds.FileRecords).State.Buckets(),
		IndexBuckets:  s.cluster.Coordinator().File(sdds.FileIndex).State.Buckets(),
		RecordSplits:  rs,
		IndexSplits:   is,
		IAMs:          riam + iiam,
	}
}
