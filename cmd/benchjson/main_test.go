package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const benchText = `goos: linux
goarch: amd64
pkg: repro/internal/sdds
BenchmarkNodeSearch/posting-8   	   57507	     20846 ns/op	    2504 B/op	      73 allocs/op
BenchmarkInsertIndexed/batched-8	    1200	    991216 ns/op	   4.00 rpcs/record
PASS
ok  	repro/internal/sdds	3.141s
`

func TestParseLine(t *testing.T) {
	r, ok := parseLine("BenchmarkNodeSearch/posting-8   	   57507	     20846 ns/op	    2504 B/op	      73 allocs/op")
	if !ok {
		t.Fatal("benchmark line not parsed")
	}
	if r.Name != "NodeSearch/posting" || r.Iterations != 57507 {
		t.Fatalf("parsed %+v", r)
	}
	if r.Metrics["ns/op"] != 20846 || r.Metrics["allocs/op"] != 73 {
		t.Fatalf("metrics %+v", r.Metrics)
	}
	for _, junk := range []string{"", "PASS", "ok  	repro 1s", "goos: linux", "Benchmark 12"} {
		if _, ok := parseLine(junk); ok {
			t.Errorf("parsed junk line %q", junk)
		}
	}
}

func TestRunStdout(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, strings.NewReader(benchText), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	var got []result
	if err := json.Unmarshal(stdout.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Metrics["rpcs/record"] != 4 {
		t.Fatalf("parsed %+v", got)
	}
}

func TestRunEmptyInputFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, strings.NewReader("PASS\n"), &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
}

func TestMergeRequiresOut(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-merge"}, strings.NewReader(benchText), &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2: %s", code, stderr.String())
	}
}

// TestMergePreservesAbsentSeries is the regression the -merge flag
// exists for: a partial bench run must refresh its own entries without
// dropping series that only exist in the committed file.
func TestMergePreservesAbsentSeries(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_search.json")
	prev := []result{
		{Name: "PlacementNodes", Iterations: 999, Metrics: map[string]float64{"ns/op": 50}},
		{Name: "NodeSearch/posting", Iterations: 1, Metrics: map[string]float64{"ns/op": 99999}},
	}
	data, err := json.Marshal(prev)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	code := run([]string{"-merge", "-out", out}, strings.NewReader(benchText), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	merged, err := loadPrev(out)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]result{}
	for _, r := range merged {
		byName[r.Name] = r
	}
	if len(merged) != 3 {
		t.Fatalf("merged %d series, want 3: %+v", len(merged), merged)
	}
	// Series absent from the run survives untouched.
	if byName["PlacementNodes"].Metrics["ns/op"] != 50 {
		t.Fatalf("absent series clobbered: %+v", byName["PlacementNodes"])
	}
	// Series present in both is refreshed by the run.
	if byName["NodeSearch/posting"].Iterations != 57507 {
		t.Fatalf("stale entry not refreshed: %+v", byName["NodeSearch/posting"])
	}
	// Genuinely new series appended.
	if byName["InsertIndexed/batched"].Metrics["rpcs/record"] != 4 {
		t.Fatalf("new series missing: %+v", byName["InsertIndexed/batched"])
	}
	// Prev order preserved, new names after.
	if merged[0].Name != "PlacementNodes" || merged[2].Name != "InsertIndexed/batched" {
		t.Fatalf("merge order wrong: %v, %v, %v", merged[0].Name, merged[1].Name, merged[2].Name)
	}
}

func TestMergeMissingFileActsAsEmpty(t *testing.T) {
	out := filepath.Join(t.TempDir(), "fresh.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-merge", "-out", out}, strings.NewReader(benchText), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	merged, err := loadPrev(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 2 {
		t.Fatalf("merged %d series, want 2", len(merged))
	}
}

// TestMergeRefusesCorruptHistory: merging over an unreadable file must
// error out rather than silently replacing the history.
func TestMergeRefusesCorruptHistory(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_search.json")
	if err := os.WriteFile(out, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-merge", "-out", out}, strings.NewReader(benchText), &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "{not json" {
		t.Fatal("failed merge modified the target file")
	}
}
