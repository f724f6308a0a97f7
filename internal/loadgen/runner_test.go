package loadgen

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
)

// instantTarget acknowledges everything immediately.
type instantTarget struct {
	inserts, searches, deletes atomic.Int64
}

func (t *instantTarget) Insert(context.Context, uint64, []byte) error {
	t.inserts.Add(1)
	return nil
}
func (t *instantTarget) Search(context.Context, []byte) ([]uint64, error) {
	t.searches.Add(1)
	return nil, nil
}
func (t *instantTarget) Delete(context.Context, uint64) error {
	t.deletes.Add(1)
	return nil
}
func (t *instantTarget) Get(context.Context, uint64) ([]byte, error) {
	return nil, ErrNotFound
}

// slowTarget holds every op for a fixed service time on the fake clock.
type slowTarget struct {
	clk clock.Clock
	d   time.Duration
}

func (t *slowTarget) Insert(context.Context, uint64, []byte) error {
	<-t.clk.After(t.d)
	return nil
}
func (t *slowTarget) Search(context.Context, []byte) ([]uint64, error) {
	<-t.clk.After(t.d)
	return nil, nil
}
func (t *slowTarget) Delete(context.Context, uint64) error {
	<-t.clk.After(t.d)
	return nil
}
func (t *slowTarget) Get(context.Context, uint64) ([]byte, error) {
	return nil, ErrNotFound
}

// runOnFakeClock drives a runner to completion with a FakeClock
// advancer goroutine.
func runOnFakeClock(t *testing.T, fc *clock.FakeClock, r *Runner, s *Stream) *RunResult {
	t.Helper()
	type outcome struct {
		res *RunResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := r.Run(context.Background(), s)
		done <- outcome{res, err}
	}()
	go func() {
		for fc.Step() {
		}
	}()
	out := <-done
	fc.Stop()
	if out.err != nil {
		t.Fatalf("Run: %v", out.err)
	}
	return out.res
}

// TestRunnerHitsTargetRate: on a fake clock with an instant target, the
// achieved offered rate must match the configured Poisson rate within
// ±5%.
func TestRunnerHitsTargetRate(t *testing.T) {
	const rate, ops = 500.0, 4000
	fc := clock.NewFake(time.Unix(0, 0))
	stream, err := NewStream(StreamConfig{Seed: 5, Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	target := &instantTarget{}
	r, err := NewRunner(target, RunnerConfig{Rate: rate, Seed: 7, Clock: fc})
	if err != nil {
		t.Fatal(err)
	}
	res := runOnFakeClock(t, fc, r, stream)

	var issued, counted uint64
	for _, sec := range res.Timeline {
		issued += sec.Issued
	}
	for _, st := range res.Ops {
		counted += st.Count + st.Skipped
	}
	if issued != ops {
		t.Fatalf("issued %d arrivals, want %d (open loop must never drop arrivals)", issued, ops)
	}
	if counted+res.Shed != ops {
		t.Fatalf("counted %d + shed %d != %d ops", counted, res.Shed, ops)
	}
	achieved := float64(ops) / res.Elapsed.Seconds()
	if math.Abs(achieved-rate)/rate > 0.05 {
		t.Fatalf("achieved rate %.1f/s, want %v/s ±5%%", achieved, rate)
	}
}

// TestRunnerCoordinatedOmissionSafe: with a saturated single-slot
// target, recorded latency must include queueing delay from the
// *scheduled* arrival — orders of magnitude above the service time —
// instead of silently degrading the offered rate.
func TestRunnerCoordinatedOmissionSafe(t *testing.T) {
	const (
		rate    = 1000.0
		ops     = 200
		service = 10 * time.Millisecond
	)
	fc := clock.NewFake(time.Unix(0, 0))
	stream, err := NewStream(StreamConfig{Seed: 5, Ops: ops, Mix: Mix{100, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	target := &slowTarget{clk: fc, d: service}
	r, err := NewRunner(target, RunnerConfig{
		Rate: rate, Seed: 7, Clock: fc,
		MaxInFlight: 1, MaxQueue: 10 * ops, // no shedding: pure backlog
	})
	if err != nil {
		t.Fatal(err)
	}
	res := runOnFakeClock(t, fc, r, stream)

	ins := res.Ops["insert"]
	if ins.Count != ops {
		t.Fatalf("completed %d inserts, want %d", ins.Count, ops)
	}
	// The backlog is ~ops*service deep by the end; a coordinated-
	// omission-blind harness would report ~service for every op.
	if ins.MaxNs < int64(50*service) {
		t.Fatalf("max latency %v; open-loop accounting must surface the queueing delay (service %v)",
			time.Duration(ins.MaxNs), service)
	}
	if ins.P50Ns <= int64(service) {
		t.Fatalf("p50 %v <= service time %v: queueing delay not accounted", time.Duration(ins.P50Ns), service)
	}
	if res.Elapsed < time.Duration(ops)*service {
		t.Fatalf("elapsed %v shorter than serialized service time", res.Elapsed)
	}
}

// TestRunnerShedsBeyondQueueBound: when the queue bound is hit, excess
// arrivals are shed and counted, never silently absorbed.
func TestRunnerShedsBeyondQueueBound(t *testing.T) {
	fc := clock.NewFake(time.Unix(0, 0))
	stream, err := NewStream(StreamConfig{Seed: 5, Ops: 300, Mix: Mix{100, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	target := &slowTarget{clk: fc, d: 10 * time.Millisecond}
	r, err := NewRunner(target, RunnerConfig{
		Rate: 1000, Seed: 7, Clock: fc, MaxInFlight: 1, MaxQueue: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := runOnFakeClock(t, fc, r, stream)
	if res.Shed == 0 {
		t.Fatal("expected sheds with MaxQueue=2 under 10x overload")
	}
	var issued uint64
	for _, sec := range res.Timeline {
		issued += sec.Issued
	}
	if issued != 300 {
		t.Fatalf("issued %d, want 300: sheds must still count as arrivals", issued)
	}
	if res.Ops["insert"].Count+res.Shed != 300 {
		t.Fatalf("completions %d + sheds %d != 300", res.Ops["insert"].Count, res.Shed)
	}
}

// failingTarget errors every insert.
type failingTarget struct{ instantTarget }

func (t *failingTarget) Insert(context.Context, uint64, []byte) error {
	return errors.New("bucket on fire")
}

// TestRunnerLedgerTracksAcks: the ledger must reflect acknowledged
// outcomes — failed inserts never become live, deletes only target
// acknowledged-live records.
func TestRunnerLedgerTracksAcks(t *testing.T) {
	fc := clock.NewFake(time.Unix(0, 0))
	stream, err := NewStream(StreamConfig{Seed: 5, Ops: 200, Mix: Mix{60, 20, 20}})
	if err != nil {
		t.Fatal(err)
	}
	target := &failingTarget{}
	r, err := NewRunner(target, RunnerConfig{Rate: 1000, Seed: 7, Clock: fc})
	if err != nil {
		t.Fatal(err)
	}
	res := runOnFakeClock(t, fc, r, stream)

	counts := r.Ledger().Counts()
	if counts.Live != 0 {
		t.Fatalf("ledger says %d live records after all inserts failed", counts.Live)
	}
	if counts.Failed == 0 {
		t.Fatal("ledger recorded no failed inserts")
	}
	ins := res.Ops["insert"]
	if ins.Errors != ins.Count || ins.ErrorRate != 1 {
		t.Fatalf("insert stats %+v, want all errored", ins)
	}
	if ins.FirstError == "" {
		t.Fatal("first error not captured")
	}
	// No insert ever succeeded, so every delete must have been skipped
	// (never sent against a non-acknowledged record).
	if del, ok := res.Ops["delete"]; ok {
		if del.Count != 0 || del.Skipped == 0 {
			t.Fatalf("delete stats %+v, want only skips", del)
		}
	}
}

// TestRunnerRejectsBadRate: a non-positive rate is a config error.
func TestRunnerRejectsBadRate(t *testing.T) {
	if _, err := NewRunner(&instantTarget{}, RunnerConfig{Rate: 0}); err == nil {
		t.Fatal("Rate=0 accepted")
	}
}
