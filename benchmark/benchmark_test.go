package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/esdds"
)

func testOptions(t *testing.T, workload string, trace bool) options {
	return options{
		workload: workload, seed: 7, seconds: 10, scale: 0.01, trace: trace,
		workDir: t.TempDir(), log: io.Discard,
	}
}

func metricNames(decls []metricDecl) []string {
	names := make([]string, len(decls))
	for i, d := range decls {
		names[i] = d.Name
	}
	sort.Strings(names)
	return names
}

func emittedNames(r *report) []string {
	names := make([]string, 0, len(r.Result.Metrics))
	for n := range r.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Every workload runs end to end at a hundredth of its size, tracing off
// and on, passes its own result check, and emits exactly the declared
// metrics.
func TestWorkloadsRunAndCheck(t *testing.T) {
	for _, s := range specs {
		for _, trace := range []bool{false, true} {
			rep, err := run(testOptions(t, s.name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", s.name, trace, err)
			}
			if !rep.Result.Correct || rep.Result.Failed != 0 || rep.Result.Attempted < 1 {
				t.Errorf("%s trace=%v: attempted %d, failed %d: %s", s.name, trace, rep.Result.Attempted, rep.Result.Failed, rep.FirstError)
			}
			want := metricNames(endToEnd)
			if trace {
				want = metricNames(perLayer)
			}
			if got := emittedNames(rep); !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: emitted metrics %v, declared %v", s.name, trace, got, want)
			}
			if !trace {
				for n, m := range rep.Result.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must be positive", s.name, n, m.Value)
					}
				}
				continue
			}
			m := rep.Result.Metrics
			if u := m["trace.unattributed"].Value; u > 10 {
				t.Errorf("%s: unattributed share %.1f%% > 10%%", s.name, u)
			}
			for _, n := range []string{"wal.journal_share", "wal.fsyncs_per_insert", "wal.bytes_per_user_byte"} {
				if v := m[n].Value; s.durable != (v > 0) {
					t.Errorf("%s: %s = %v, want non-zero exactly on the durable workload", s.name, n, v)
				}
			}
			// At this size the journal never reaches a checkpoint's worth.
			if v := m["wal.checkpoints"].Value; !s.durable && v != 0 {
				t.Errorf("%s: wal.checkpoints = %v without a WAL", s.name, v)
			}
			classes := make(map[string]bool)
			for _, tb := range rep.Stages {
				classes[tb.Class] = true
				var share float64
				for _, r := range tb.Rows {
					share += r.Share
				}
				if share < 0.999 || share > 1.001 {
					t.Errorf("%s: %s/%s blocking shares sum to %v, want 1", s.name, tb.Phase, tb.Class, share)
				}
			}
			for k, pct := range s.mix {
				if pct > 0 && !classes[kindNames[k]] {
					t.Errorf("%s: no stage table for %s", s.name, kindNames[k])
				}
			}
		}
	}
}

// Every gated latency median rests on at least 1000 samples at full size:
// from the timed phase where the mix has the class, else from the preload
// (inserts) or the probe (searches).
func TestSpecsGiveEnoughSamples(t *testing.T) {
	for _, s := range specs {
		inserts, searches := s.ops*s.mix[opInsert]/100, s.ops*s.mix[opSearch]/100
		if inserts == 0 {
			inserts = s.preload
		}
		if searches == 0 {
			searches = s.probe
		}
		if inserts < 1000 || searches < 1000 {
			t.Errorf("%s: %d insert and %d search samples, want 1000 each", s.name, inserts, searches)
		}
	}
}

// The same seed gives the same inputs, and at one worker the same counts.
func TestSameSeedSameStreamAndCounts(t *testing.T) {
	s, _ := specByName("mixed")
	s = s.sized(10, 0.01)
	a, err := generate(s, 3, workers)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := generate(s, 3, workers)
	c, _ := generate(s, 4, workers)
	if a.streamHash() != b.streamHash() {
		t.Error("same seed, different stream hash")
	}
	if a.streamHash() == c.streamHash() {
		t.Error("different seeds, same stream hash")
	}

	counts := []string{
		"sdds.client.rpcs_per_op", "sdds.client.iams", "sdds.client.splits",
		"transport.bytes_out_per_op", "transport.bytes_in_per_op",
		"sdds.node.entries_per_put_batch", "sdds.node.hits_per_search",
		"wal.fsyncs_per_insert", "wal.bytes_per_user_byte", "wal.checkpoints",
		"sdds.stored_bytes_per_user_byte",
	}
	for _, w := range []string{"ingest_durable", "mixed"} {
		r1, err := run(testOptions(t, w, true))
		if err != nil {
			t.Fatal(err)
		}
		r2, err := run(testOptions(t, w, true))
		if err != nil {
			t.Fatal(err)
		}
		if r1.StreamHash != r2.StreamHash {
			t.Errorf("%s: stream hash %s vs %s", w, r1.StreamHash, r2.StreamHash)
		}
		for _, n := range counts {
			if v1, v2 := r1.Result.Metrics[n].Value, r2.Result.Metrics[n].Value; v1 != v2 {
				t.Errorf("%s: %s = %v then %v on the same seed", w, n, v1, v2)
			}
		}
	}
}

// The traced mirror and esdds.Store are the same store: same reads, same
// search results in all three modes.
func TestTracedStoreMatchesStore(t *testing.T) {
	s := spec{name: "equivalence", preload: 2000, ops: 1, mix: [numKinds]int{opSearch: 100}}
	in, err := generate(s, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := openStack("")
	if err != nil {
		t.Fatal(err)
	}
	defer plain.close() //nolint:errcheck // test teardown
	traced, err := openTracedStack(newTracer(1<<16), newTracedFS())("")
	if err != nil {
		t.Fatal(err)
	}
	defer traced.close() //nolint:errcheck // test teardown
	for _, st := range []*stack{plain, traced} {
		if p := runPhase(st.store, in, in.preload, 0); p.errs > 0 {
			t.Fatalf("preload: %v", p.firstErr)
		}
	}
	ctx := context.Background()
	for i := 0; i < s.preload; i += 97 {
		a, errA := plain.store.Get(ctx, in.rids[i])
		b, errB := traced.store.Get(ctx, in.rids[i])
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Fatalf("get %d: %q %v vs %q %v", in.rids[i], a, errA, b, errB)
		}
	}
	queries := append([][]byte{[]byte("ANDERSON MARIA")}, in.queries...)
	for _, mode := range []esdds.SearchMode{esdds.SearchFast, esdds.SearchVerified, esdds.SearchExact} {
		for _, q := range queries {
			if len(q) < 2*storeConfig.ChunkSize-1 && mode != esdds.SearchFast {
				continue
			}
			a, errA := plain.store.Search(ctx, q, mode)
			b, errB := traced.store.Search(ctx, q, mode)
			if errA != nil || errB != nil || !reflect.DeepEqual(a, b) {
				t.Fatalf("search %q %v: %d rids %v vs %d rids %v", q, mode, len(a), errA, len(b), errB)
			}
		}
	}
}

// Self time subtracts the union of the children; blocking time hands an
// overlap to the child that ends last and always sums to the root.
func TestSelfAndBlockingTime(t *testing.T) {
	sp := func(parent int32, kind spanKind, start, end int64) span {
		return span{parent: parent, kind: kind, start: start, end: end}
	}
	spans := []span{
		sp(0, spanOp, 0, 100),       // 1: root
		sp(1, spanCluster, 10, 90),  // 2: child of root
		sp(2, spanSend, 20, 50),     // 3: overlapping siblings under 2 ...
		sp(2, spanSend, 30, 70),     // 4
		sp(2, spanSend, 35, 45),     // 5: ... one fully inside the others
		sp(4, spanPeerSend, 40, 60), // 6: nested under 4
		sp(2, spanSend, 80, 85),     // 7: disjoint sibling
		sp(1, spanSeal, 95, 120),    // 8: runs past its parent; clipped
	}
	a := analyze(spans)
	wantSelf := []int64{100 - 80 - 5, 80 - 50 - 5, 30, 40 - 20, 10, 20, 5, 25}
	wantBlocking := []int64{15, 25, 10, 20, 0, 20, 5, 5}
	for i := range spans {
		if a.self[i] != wantSelf[i] {
			t.Errorf("span %d: self %d, want %d", i+1, a.self[i], wantSelf[i])
		}
		if a.blocking[i] != wantBlocking[i] {
			t.Errorf("span %d: blocking %d, want %d", i+1, a.blocking[i], wantBlocking[i])
		}
	}
	var sum int64
	for _, b := range a.blocking {
		sum += b
	}
	if sum != 100 {
		t.Errorf("blocking times sum to %d, want the root's 100", sum)
	}
}

// A handler span is adopted by the send that contains it, a journal span by
// the handler that contains it, and wire time is what is left of the send.
func TestParentsResolvedByContainment(t *testing.T) {
	spans := []span{
		{kind: spanOp, start: 0, end: 100},
		{parent: 1, kind: spanCluster, start: 5, end: 95},
		{parent: 2, kind: spanSend, node: 1, opcode: 1, start: 10, end: 60},
		{parent: 2, kind: spanSend, node: 2, opcode: 1, start: 12, end: 90},
		{kind: spanHandler, node: 2, opcode: 1, start: 30, end: 80},
		{kind: spanHandler, node: 1, opcode: 1, start: 20, end: 50},
		{kind: spanJournal, node: 2, start: 40, end: 70},
	}
	a := analyze(spans)
	if spans[4].parent != 4 || spans[5].parent != 3 || spans[6].parent != 5 {
		t.Fatalf("parents: handler@2 -> %d, handler@1 -> %d, journal -> %d; want 4, 3, 5",
			spans[4].parent, spans[5].parent, spans[6].parent)
	}
	if a.self[3] != 78-50 || a.self[4] != 50-30 {
		t.Errorf("wire self %d, handler self %d; want 28, 20", a.self[3], a.self[4])
	}
	// Node 2 answers last, so it owns the overlap: node 1's round trip
	// blocks nothing after node 2's send starts.
	if a.blocking[2] != 2 || a.blocking[5] != 0 {
		t.Errorf("faster node's blocking: send %d handler %d; want 2, 0", a.blocking[2], a.blocking[5])
	}
}

func TestGroundTruthMatchesNaiveScan(t *testing.T) {
	s := spec{name: "truth", preload: 500, ops: 400, mix: [numKinds]int{opInsert: 50, opDelete: 50}}
	in, err := generate(s, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := newGroundTruth(in)
	for _, q := range append(in.queries, []byte("AN"), []byte("415-100"), []byte("no such text")) {
		var want []uint64
		for i, st := range in.live {
			if st == recLive && bytes.Contains(in.content[i], q) {
				want = append(want, in.rids[i])
			}
		}
		if got := g.matches(q); !reflect.DeepEqual(got, want) {
			t.Errorf("query %q: %d matches, want %d", q, len(got), len(want))
		}
	}
}

// BENCHMARK.json and the program declare the same command target,
// workloads and metrics.
func TestManifestMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDecl `json:"end_to_end"`
		PerLayer []metricDecl `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&manifest); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(manifest.Paths, []string{"benchmark"}) || !strings.HasPrefix(manifest.Command[len(manifest.Command)-1], "benchmark/") {
		t.Errorf("paths %v, command %v", manifest.Paths, manifest.Command)
	}
	if len(manifest.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, %d implemented", len(manifest.Workloads), len(specs))
	}
	for i, w := range manifest.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: manifest %q %q, program %q %q", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, at most 200", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(manifest.EndToEnd, endToEnd) {
		t.Errorf("end_to_end: manifest %v, program %v", manifest.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(manifest.PerLayer, perLayer) {
		t.Errorf("per_layer: manifest %v, program %v", manifest.PerLayer, perLayer)
	}
}
