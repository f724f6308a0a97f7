package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/sdds"
)

// spanKind names the seam a span was recorded at.
type spanKind uint8

const (
	spanOp         spanKind = iota // one Store call; the root of an op's tree
	spanSeal                       // cipherx.RecordCipher.Seal
	spanOpen                       // cipherx.RecordCipher.Open
	spanBuildIndex                 // core.Pipeline.BuildIndex
	spanBuildQuery                 // core.Pipeline.BuildQuery
	spanCluster                    // one sdds.Cluster call made by the store
	spanSend                       // client transport.Send
	spanPeerSend                   // a node's transport.Send to a peer (forwarding)
	spanHandler                    // node.Handler() on the server side
	spanJournal                    // wal.Store.Journal
	spanCheckpoint                 // wal.Store.Checkpoint
)

// layer maps a span to its stage-table row: the owning module, plus the
// opcode where one module serves several.
func (s *span) layer() string {
	switch s.kind {
	case spanOp:
		return "esdds.store"
	case spanSeal:
		return "cipherx.seal"
	case spanOpen:
		return "cipherx.open"
	case spanBuildIndex:
		return "core.build_index"
	case spanBuildQuery:
		return "core.build_query"
	case spanCluster:
		return "sdds.client"
	case spanSend:
		return "transport.wire." + sdds.OpName(s.opcode)
	case spanPeerSend:
		return "transport.peer_wire." + sdds.OpName(s.opcode)
	case spanHandler:
		return "sdds.node.handler." + sdds.OpName(s.opcode)
	case spanJournal:
		return "wal.journal"
	case spanCheckpoint:
		return "wal.checkpoint"
	}
	return "unknown"
}

// runPhaseID tags a span with the part of the run that issued it.
type runPhaseID uint8

const (
	phasePreload runPhaseID = iota
	phaseTimed
	phaseProbe
	phaseCheck
)

// span is one timed interval. Times are nanoseconds since the tracer
// started. id is the span's index plus one; parent 0 means "none yet".
type span struct {
	parent     int32
	kind       spanKind
	opcode     uint8
	node       int8
	class      opKind     // spanOp only
	phase      runPhaseID // spanOp only
	start, end int64
	out, in    int32 // payload bytes sent/received (sends); entries or hits (handlers)
}

// tracer keeps every span of a run in memory.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	phase runPhaseID // set between phases, while no op is in flight
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) begin(s span) int32 {
	s.start = time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	id := int32(len(t.spans))
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) { t.endIO(id, 0, 0) }

// endIO closes a span and records its two counters.
func (t *tracer) endIO(id int32, out, in int) {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	s := &t.spans[id-1]
	s.end, s.out, s.in = now, int32(out), int32(in)
	t.mu.Unlock()
}

type spanCtxKey struct{}

func withSpan(ctx context.Context, id int32) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, id)
}

func spanFrom(ctx context.Context) int32 {
	id, _ := ctx.Value(spanCtxKey{}).(int32)
	return id
}

// analysis is the span forest with parents resolved and times attributed.
type analysis struct {
	spans    []span
	children [][]int32 // by span index; child indices ascending by start
	roots    []int32   // index of the op span on top of each span's tree, or -1
	self     []int64   // duration minus the union of the children
	blocking []int64   // part of the root's duration this span itself held up
}

// analyze resolves the parents the shims could not see, then computes self
// and blocking time for every span.
//
// A handler runs behind a socket, so its span arrives parentless: it is
// adopted by the send to the same node with the same opcode that contains
// it in time (the latest-started one, if a forward makes two candidates
// overlap). Journal and checkpoint calls carry no context either: they are
// adopted by the handler on the same node that contains them.
func analyze(spans []span) *analysis {
	a := &analysis{spans: spans}
	type key struct {
		node   int8
		opcode uint8
	}
	sends := make(map[key][]int32)
	handlers := make(map[int8][]int32)
	for i := range spans {
		s := &spans[i]
		if s.end < s.start {
			s.end = s.start // never closed: the call did not return
		}
		switch s.kind {
		case spanSend, spanPeerSend:
			k := key{s.node, s.opcode}
			sends[k] = append(sends[k], int32(i))
		case spanHandler:
			handlers[s.node] = append(handlers[s.node], int32(i))
		}
	}
	taken := make(map[int32]bool)
	adopt := func(i int32, candidates []int32, exclusive bool) {
		s := &spans[i]
		best := int32(-1)
		for _, c := range candidates {
			p := &spans[c]
			if p.start <= s.start && s.end <= p.end && !(exclusive && taken[c]) &&
				(best < 0 || p.start > spans[best].start) {
				best = c
			}
		}
		if best >= 0 {
			s.parent = best + 1
			if exclusive {
				taken[best] = true
			}
		}
	}
	byStart := func(l []int32) {
		sort.Slice(l, func(x, y int) bool { return spans[l[x]].start < spans[l[y]].start })
	}
	for _, l := range sends {
		byStart(l)
	}
	for _, l := range handlers {
		byStart(l)
	}
	for i := range spans {
		s := &spans[i]
		if s.parent != 0 {
			continue
		}
		switch s.kind {
		case spanHandler:
			adopt(int32(i), window(spans, sends[key{s.node, s.opcode}], s.start), true)
		case spanJournal, spanCheckpoint:
			adopt(int32(i), window(spans, handlers[s.node], s.start), false)
		}
	}

	a.children = make([][]int32, len(spans))
	for i := range spans {
		if p := spans[i].parent; p != 0 {
			a.children[p-1] = append(a.children[p-1], int32(i))
		}
	}
	a.roots = make([]int32, len(spans))
	for i := range spans {
		a.roots[i] = a.findRoot(int32(i))
	}
	a.self = make([]int64, len(spans))
	a.blocking = make([]int64, len(spans))
	for i := range spans {
		kids := a.children[i]
		sort.Slice(kids, func(x, y int) bool { return spans[kids[x]].start < spans[kids[y]].start })
		a.self[i] = spans[i].end - spans[i].start - a.covered(int32(i))
	}
	for i := range spans {
		if spans[i].kind == spanOp {
			a.assign(int32(i), spans[i].start, spans[i].end)
		}
	}
	return a
}

// window returns the candidates that started at or before t and could
// still be running: the few entries of the (start-ordered) list just before
// the first one that starts after t.
func window(spans []span, list []int32, t int64) []int32 {
	hi := sort.Search(len(list), func(i int) bool { return spans[list[i]].start > t })
	lo := hi - 16
	if lo < 0 {
		lo = 0
	}
	return list[lo:hi]
}

// covered is the length of the union of span i's children, clipped to i.
func (a *analysis) covered(i int32) int64 {
	p := &a.spans[i]
	var total, reach int64 = 0, p.start
	for _, c := range a.children[i] { // ascending by start
		s, e := a.spans[c].start, a.spans[c].end
		if s < reach {
			s = reach
		}
		if e > p.end {
			e = p.end
		}
		if e > s {
			total += e - s
			reach = e
		}
	}
	return total
}

// assign splits [lo,hi), an interval during which span i is on the path
// the caller waits on, between i and its children. Where children overlap
// — a broadcast, a batch fan-out — the caller waits for the one that ends
// last, so that child owns the overlap: the slowest parallel part sets the
// time, and the faster ones block nothing.
func (a *analysis) assign(i int32, lo, hi int64) {
	kids := a.children[i]
	for t := lo; t < hi; {
		best, next := int32(-1), hi
		for _, c := range kids {
			s, e := a.spans[c].start, a.spans[c].end
			switch {
			case s <= t && t < e:
				if best < 0 || e > a.spans[best].end {
					best = c
				}
			case s > t && s < next:
				next = s
			}
		}
		if best < 0 {
			a.blocking[i] += next - t
			t = next
			continue
		}
		// best owns the path until it ends, or until a sibling starts that
		// will end even later.
		until := a.spans[best].end
		if until > hi {
			until = hi
		}
		for _, c := range kids {
			if s := a.spans[c].start; s > t && s < until && a.spans[c].end > a.spans[best].end {
				until = s
			}
		}
		a.assign(best, t, until)
		t = until
	}
}

// root returns the index of the op span at the top of i's tree, or -1 for
// a span no op owns (a handler whose send failed, say).
func (a *analysis) root(i int32) int32 { return a.roots[i] }

func (a *analysis) findRoot(i int32) int32 {
	for {
		s := &a.spans[i]
		if s.kind == spanOp {
			return i
		}
		if s.parent == 0 {
			return -1
		}
		i = s.parent - 1
	}
}

// stageRow is one layer's line in a stage table.
type stageRow struct {
	Layer      string  `json:"layer"`
	Count      int     `json:"count"`
	P50Us      float64 `json:"self_p50_us"`
	SelfMs     float64 `json:"self_total_ms"`
	BlockingMs float64 `json:"blocking_ms"`
	Share      float64 `json:"share"` // blocking time / traced end-to-end time
}

// stageTable says where the time of one op class went in one phase.
type stageTable struct {
	Phase        string     `json:"phase"`
	Class        string     `json:"class"`
	Ops          int        `json:"ops"`
	E2EMs        float64    `json:"e2e_ms"`
	E2EP50Us     float64    `json:"e2e_p50_us"`
	Rows         []stageRow `json:"rows"`
	Unattributed float64    `json:"unattributed_share"`
	order        runPhaseID
}

var phaseNames = [...]string{"preload", "timed", "probe", "check"}

// stageTables groups every span under its op's class — and phase, if
// byPhase — and sums self and blocking time per layer. The op span's own
// blocking time, the store's glue between layer calls, is the unattributed
// share.
func (a *analysis) stageTables(byPhase bool) []stageTable {
	type group struct {
		phase runPhaseID
		class opKind
	}
	type acc struct {
		selfs    []int64
		self     int64
		blocking int64
	}
	rows := make(map[group]map[string]*acc)
	e2e := make(map[group][]int64)
	for i := range a.spans {
		r := a.root(int32(i))
		if r < 0 {
			continue
		}
		g := group{class: a.spans[r].class}
		if byPhase {
			g.phase = a.spans[r].phase
		}
		if int32(i) == r {
			e2e[g] = append(e2e[g], a.spans[r].end-a.spans[r].start)
		}
		if rows[g] == nil {
			rows[g] = make(map[string]*acc)
		}
		l := a.spans[i].layer()
		if rows[g][l] == nil {
			rows[g][l] = &acc{}
		}
		x := rows[g][l]
		x.selfs = append(x.selfs, a.self[i])
		x.self += a.self[i]
		x.blocking += a.blocking[i]
	}
	var out []stageTable
	for g, layers := range rows {
		var total int64
		for _, d := range e2e[g] {
			total += d
		}
		name := "whole run"
		if byPhase {
			name = phaseNames[g.phase]
		}
		t := stageTable{
			Phase: name, Class: kindNames[g.class], order: g.phase,
			Ops: len(e2e[g]), E2EMs: float64(total) / 1e6, E2EP50Us: p50us(e2e[g]),
		}
		for l, x := range layers {
			row := stageRow{
				Layer: l, Count: len(x.selfs), P50Us: p50us(x.selfs),
				SelfMs: float64(x.self) / 1e6, BlockingMs: float64(x.blocking) / 1e6,
				Share: float64(x.blocking) / float64(total),
			}
			if l == "esdds.store" {
				t.Unattributed = row.Share
			}
			t.Rows = append(t.Rows, row)
		}
		sort.Slice(t.Rows, func(i, j int) bool { return t.Rows[i].BlockingMs > t.Rows[j].BlockingMs })
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].order != out[j].order {
			return out[i].order < out[j].order
		}
		return out[i].Class < out[j].Class
	})
	return out
}

func p50us(ns []int64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[len(s)/2]) / 1e3
}

func printStageTables(w io.Writer, tables []stageTable) {
	for _, t := range tables {
		fmt.Fprintf(w, "\n%s phase, %s: %d ops, traced e2e %.1f ms (p50 %.1f us), unattributed %.2f%%\n",
			t.Phase, t.Class, t.Ops, t.E2EMs, t.E2EP50Us, 100*t.Unattributed)
		fmt.Fprintf(w, "  %-40s %8s %12s %12s %12s %7s\n", "layer", "count", "self p50 us", "self ms", "blocking ms", "share")
		for _, r := range t.Rows {
			fmt.Fprintf(w, "  %-40s %8d %12.2f %12.1f %12.1f %6.1f%%\n", r.Layer, r.Count, r.P50Us, r.SelfMs, r.BlockingMs, 100*r.Share)
		}
	}
}

// writeSpans dumps every span (name, start, end, parent, op id) as JSON.
func (a *analysis) writeSpans(path string) error {
	type jsonSpan struct {
		ID      int32  `json:"id"`
		Parent  int32  `json:"parent,omitempty"`
		Op      int32  `json:"op,omitempty"`
		Name    string `json:"name"`
		Node    int8   `json:"node"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range a.spans {
		s := &a.spans[i]
		js := jsonSpan{ID: int32(i) + 1, Parent: s.parent, Op: a.root(int32(i)) + 1, Name: s.layer(), Node: s.node, StartNs: s.start, EndNs: s.end}
		if err := enc.Encode(js); err != nil {
			f.Close() //nolint:errcheck // reporting the write error
			return err
		}
	}
	return f.Close()
}
