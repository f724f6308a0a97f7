package wal

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// BenchmarkWALAppend times Journal (Append + Sync) on the real
// filesystem: one caller, and eight concurrent callers sharing group
// flushes. fsyncs/append is the group-commit figure of merit: 1 for a
// lone caller, and well under 1 once callers overlap.
func BenchmarkWALAppend(b *testing.B) {
	for _, c := range []struct {
		name      string
		opts      Options
		appenders int
	}{
		{"sync", Options{}, 1},
		{"group8", Options{}, 8},
	} {
		b.Run(c.name, func(b *testing.B) {
			c.opts.CheckpointBytes = 1 << 40 // nobody checkpoints here
			s, err := Open(OSFS{}, b.TempDir(), c.opts)
			if err != nil {
				b.Fatal(err)
			}
			reg := obs.NewRegistry()
			s.Instrument(reg)
			payload := make([]byte, 128) // about one journaled index put
			b.SetBytes(int64(frameOverhead + len(payload)))
			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			wg.Add(c.appenders)
			for a := 0; a < c.appenders; a++ {
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						if err := s.Journal(1, payload); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(reg.CounterValue("wal_fsyncs_total"))/float64(b.N), "fsyncs/append")
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
