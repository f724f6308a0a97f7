package esdds

import (
	"context"
	"errors"

	"repro/internal/sdds"
)

// Word search — the [SWP00] adaptation the paper's conclusion proposes.
// When Config.WordSearch is enabled, Insert additionally stores a word
// blob (the record's sorted, deduplicated HMAC word tokens) in a third
// SDDS file, and SearchWord finds records containing an exact whole
// word with no false positives at all, complementing the substring
// index's approximate matching.

// ErrWordSearchDisabled reports word operations on a store opened
// without Config.WordSearch.
var ErrWordSearchDisabled = errors.New("esdds: word search not enabled in Config")

// SearchWord returns the RIDs of records containing the exact word
// (case-insensitive under the default tokenizer). Unlike the substring
// Search, results are exact, and any word length is searchable. As with
// Search, a node that does not answer makes it return an
// *IncompleteError, and a split or merge in progress is waited out.
func (s *Store) SearchWord(ctx context.Context, word []byte) ([]uint64, error) {
	if s.words == nil {
		return nil, ErrWordSearchDisabled
	}
	token := s.words.TokenOf(normalizeWord(word))
	return s.cluster.WordSearch(ctx, sdds.FileWords, token[:])
}

// normalizeWord upper-cases ASCII letters so queries match the default
// tokenizer's normalization.
func normalizeWord(w []byte) []byte {
	out := make([]byte, len(w))
	for i, c := range w {
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		out[i] = c
	}
	return out
}
