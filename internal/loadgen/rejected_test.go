package loadgen

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
)

// errShedByServer stands in for a server's overload sentinel: the error
// a harness's IsRejected classifier matches with errors.Is.
var errShedByServer = errors.New("server shed the request")

// sheddingTarget rejects every insert with a wrapped overload sentinel
// and answers every search instantly.
type sheddingTarget struct {
	inserts, searches atomic.Uint64
}

func (t *sheddingTarget) Insert(context.Context, uint64, []byte) error {
	t.inserts.Add(1)
	return fmt.Errorf("insert refused: %w", errShedByServer)
}
func (t *sheddingTarget) Search(context.Context, []byte) ([]uint64, error) {
	t.searches.Add(1)
	return nil, nil
}
func (t *sheddingTarget) Delete(context.Context, uint64) error { return nil }
func (t *sheddingTarget) Get(context.Context, uint64) ([]byte, error) {
	return nil, ErrNotFound
}

// TestRunnerCountsRejectedSeparately: ops the server refused with an
// overload rejection are accounted as backpressure — outside Count,
// Errors, and the latency histograms — while everything else keeps its
// normal accounting.
func TestRunnerCountsRejectedSeparately(t *testing.T) {
	const ops = 200
	fc := clock.NewFake(time.Unix(0, 0))
	stream, err := NewStream(StreamConfig{Seed: 5, Ops: ops, Mix: Mix{50, 50, 0}})
	if err != nil {
		t.Fatal(err)
	}
	target := &sheddingTarget{}
	r, err := NewRunner(target, RunnerConfig{
		Rate: 1000, Seed: 7, Clock: fc,
		IsRejected: func(err error) bool { return errors.Is(err, errShedByServer) },
	})
	if err != nil {
		t.Fatal(err)
	}
	res := runOnFakeClock(t, fc, r, stream)

	nIns, nSearch := target.inserts.Load(), target.searches.Load()
	if nIns == 0 || nSearch == 0 {
		t.Fatalf("degenerate mix: %d inserts, %d searches", nIns, nSearch)
	}
	ins := res.Ops["insert"]
	if ins.Rejected != nIns {
		t.Fatalf("insert.Rejected = %d, want %d", ins.Rejected, nIns)
	}
	if ins.Count != 0 || ins.Errors != 0 || ins.ErrorRate != 0 {
		t.Fatalf("rejected inserts leaked into count/errors: %+v", ins)
	}
	if ins.MaxNs != 0 {
		t.Fatalf("rejected inserts left latency samples: max %v", time.Duration(ins.MaxNs))
	}
	sea := res.Ops["search"]
	if sea.Count != nSearch || sea.Errors != 0 || sea.Rejected != 0 {
		t.Fatalf("search stats polluted by rejection accounting: %+v", sea)
	}
	var tlRejected, tlDone uint64
	for _, sec := range res.Timeline {
		tlRejected += sec.Rejected
		tlDone += sec.Done
	}
	if tlRejected != nIns {
		t.Fatalf("timeline rejected sum = %d, want %d", tlRejected, nIns)
	}
	if tlDone != nSearch {
		t.Fatalf("timeline done sum = %d, want %d (rejected ops must not be Done)", tlDone, nSearch)
	}

	// And none of it was invisible: arrivals = completions + rejections.
	if got := ins.Rejected + sea.Count; got != ops {
		t.Fatalf("rejected %d + completed %d != %d arrivals", ins.Rejected, sea.Count, ops)
	}
}

// TestRunnerWithoutClassifierKeepsErrors: with no IsRejected hook the
// same overload errors count as plain failures — the classifier is
// opt-in, not a change to default semantics.
func TestRunnerWithoutClassifierKeepsErrors(t *testing.T) {
	fc := clock.NewFake(time.Unix(0, 0))
	stream, err := NewStream(StreamConfig{Seed: 5, Ops: 100, Mix: Mix{100, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(&sheddingTarget{}, RunnerConfig{Rate: 1000, Seed: 7, Clock: fc})
	if err != nil {
		t.Fatal(err)
	}
	res := runOnFakeClock(t, fc, r, stream)
	ins := res.Ops["insert"]
	if ins.Rejected != 0 {
		t.Fatalf("insert.Rejected = %d without a classifier", ins.Rejected)
	}
	if ins.Count != 100 || ins.Errors != 100 {
		t.Fatalf("unclassified overload errors not counted as errors: %+v", ins)
	}
}

// TestReportAndGatesSeeRejection: rejected counts flow into report
// totals and resolve as SLO gate metrics, goodput reflects only
// successful work, and a gate on a metric the report lacks fails.
func TestReportAndGatesSeeRejection(t *testing.T) {
	const ops = 200
	fc := clock.NewFake(time.Unix(0, 0))
	stream, err := NewStream(StreamConfig{Seed: 5, Ops: ops, Mix: Mix{50, 50, 0}})
	if err != nil {
		t.Fatal(err)
	}
	target := &sheddingTarget{}
	r, err := NewRunner(target, RunnerConfig{
		Rate: 1000, Seed: 7, Clock: fc,
		IsRejected: func(err error) bool { return errors.Is(err, errShedByServer) },
	})
	if err != nil {
		t.Fatal(err)
	}
	res := runOnFakeClock(t, fc, r, stream)

	rep := BuildReport("overload-test", RunConfig{Rate: 1000}, res)
	nIns, nSearch := target.inserts.Load(), target.searches.Load()
	if rep.Totals.Rejected != nIns {
		t.Fatalf("Totals.Rejected = %d, want %d", rep.Totals.Rejected, nIns)
	}
	if rep.Totals.Ops != nSearch || rep.Totals.Errors != 0 {
		t.Fatalf("Totals = %+v, want %d ops / 0 errors", rep.Totals, nSearch)
	}
	wantGoodput := float64(nSearch) / rep.Totals.ElapsedSec
	if rep.Totals.Goodput != wantGoodput {
		t.Fatalf("Goodput = %.3f, want %.3f", rep.Totals.Goodput, wantGoodput)
	}
	gates, err := ParseGates([]string{
		fmt.Sprintf("rejected == %d", nIns),
		fmt.Sprintf("insert.rejected == %d", nIns),
		"goodput > 0",
		"repairs == 0",
	})
	if err != nil {
		t.Fatal(err)
	}
	outcomes, pass := EvalGates(gates, rep, nil)
	if !pass {
		t.Fatalf("gates failed: %+v", outcomes)
	}
	for _, o := range outcomes {
		if o.Skipped {
			t.Fatalf("gate unexpectedly skipped: %+v", o)
		}
	}

	// loss without an audit is absent, and a gate on a missing metric
	// fails loudly rather than passing vacuously.
	gates, err = ParseGates([]string{"loss == 0"})
	if err != nil {
		t.Fatal(err)
	}
	if _, pass := EvalGates(gates, rep, nil); pass {
		t.Fatal("loss gate passed with no audit in the report")
	}
}
