package esdds

import (
	"bytes"
	"math/rand"
	"testing"
)

// naiveContains is the obvious O(n*m) reference matcher the client-side
// plaintext filter used to hand-roll. SearchRecords now relies
// on bytes.Contains; this differential test pins the two to identical
// behavior, including the edge cases (empty needle, needle == haystack,
// needle longer than haystack, overlapping near-matches).
func naiveContains(haystack, needle []byte) bool {
	if len(needle) == 0 {
		return true
	}
	for i := 0; i+len(needle) <= len(haystack); i++ {
		j := 0
		for j < len(needle) && haystack[i+j] == needle[j] {
			j++
		}
		if j == len(needle) {
			return true
		}
	}
	return false
}

func TestBytesContainsMatchesNaiveReference(t *testing.T) {
	fixed := []struct {
		haystack, needle string
	}{
		{"", ""},
		{"", "A"},
		{"A", ""},
		{"A", "A"},
		{"AB", "ABC"},
		{"AAAB", "AAB"}, // overlapping near-match
		{"ABABAC", "ABAC"},
		{"SCHWARZ THOMAS", "THOMAS"},
	}
	for _, c := range fixed {
		got := bytes.Contains([]byte(c.haystack), []byte(c.needle))
		want := naiveContains([]byte(c.haystack), []byte(c.needle))
		if got != want {
			t.Errorf("Contains(%q, %q) = %v, naive = %v", c.haystack, c.needle, got, want)
		}
	}

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		h := make([]byte, rng.Intn(40))
		for j := range h {
			h[j] = byte('A' + rng.Intn(3)) // tiny alphabet: frequent near-matches
		}
		var n []byte
		if len(h) > 0 && rng.Intn(2) == 0 {
			// Sample the needle from the haystack so true positives occur.
			off := rng.Intn(len(h))
			n = append(n, h[off:off+rng.Intn(len(h)-off+1)]...)
		} else {
			n = make([]byte, rng.Intn(6))
			for j := range n {
				n[j] = byte('A' + rng.Intn(3))
			}
		}
		if got, want := bytes.Contains(h, n), naiveContains(h, n); got != want {
			t.Fatalf("Contains(%q, %q) = %v, naive = %v", h, n, got, want)
		}
	}
}
