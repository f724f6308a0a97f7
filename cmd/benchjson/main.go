// Command benchjson converts `go test -bench` text output (read from
// stdin) into a JSON array, one object per benchmark result line:
//
//	go test -run '^$' -bench . -benchmem ./internal/sdds | benchjson
//
// emits
//
//	[
//	  {"name":"NodeSearch/posting","iterations":57507,
//	   "metrics":{"ns/op":20846,"B/op":2504,"allocs/op":73}},
//	  ...
//	]
//
// Custom b.ReportMetric units (e.g. "rpcs/record") appear alongside the
// standard ones. Non-benchmark lines (goos/pkg headers, PASS/ok) are
// ignored, so the tool can sit at the end of any bench pipeline.
//
// With -merge -out FILE, results are merged into FILE by benchmark
// name instead of replacing it wholesale: series present in FILE but
// absent from this run are preserved. That lets a partial bench run
// (e.g. only the search benchmarks) refresh its own entries without
// silently dropping everyone else's history from BENCH_*.json.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

type result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

func parseLine(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	// Strip the -GOMAXPROCS suffix go test appends to the name.
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	r := result{Name: name, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return result{}, false
		}
		r.Metrics[fields[i+1]] = v
	}
	if len(r.Metrics) == 0 {
		return result{}, false
	}
	return r, true
}

func parseAll(in io.Reader) ([]result, error) {
	var results []result
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if r, ok := parseLine(sc.Text()); ok {
			results = append(results, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// mergeResults overlays fresh onto prev by name: fresh entries win,
// prev entries with no fresh counterpart survive. Order is prev's,
// with genuinely new names appended in run order.
func mergeResults(prev, fresh []result) []result {
	byName := make(map[string]result, len(fresh))
	for _, r := range fresh {
		byName[r.Name] = r
	}
	out := make([]result, 0, len(prev)+len(fresh))
	seen := make(map[string]bool, len(prev))
	for _, r := range prev {
		if nr, ok := byName[r.Name]; ok {
			out = append(out, nr)
		} else {
			out = append(out, r)
		}
		seen[r.Name] = true
	}
	for _, r := range fresh {
		if !seen[r.Name] {
			out = append(out, r)
			seen[r.Name] = true
		}
	}
	return out
}

// loadPrev reads an existing benchjson file. A missing file is an
// empty history; a present-but-unparsable one is an error — merging
// over a file we cannot read would destroy it.
func loadPrev(path string) ([]result, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var prev []result
	if err := json.Unmarshal(data, &prev); err != nil {
		return nil, fmt.Errorf("existing %s is not a benchjson array: %w", path, err)
	}
	return prev, nil
}

func encode(w io.Writer, results []result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fl.SetOutput(stderr)
	merge := fl.Bool("merge", false, "merge results by name into -out instead of overwriting")
	out := fl.String("out", "", "write JSON to this file instead of stdout (atomic)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *merge && *out == "" {
		fmt.Fprintln(stderr, "benchjson: -merge requires -out FILE")
		return 2
	}

	results, err := parseAll(stdin)
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	if len(results) == 0 {
		fmt.Fprintln(stderr, "benchjson: no benchmark lines on stdin")
		return 1
	}

	if *merge {
		prev, err := loadPrev(*out)
		if err != nil {
			fmt.Fprintln(stderr, "benchjson:", err)
			return 1
		}
		results = mergeResults(prev, results)
	}

	if *out == "" {
		if err := encode(stdout, results); err != nil {
			fmt.Fprintln(stderr, "benchjson:", err)
			return 1
		}
		return 0
	}
	tmp, err := os.CreateTemp(filepath.Dir(*out), ".benchjson-*")
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	if err := encode(tmp, results); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	if err := os.Rename(tmp.Name(), *out); err != nil {
		os.Remove(tmp.Name())
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}
