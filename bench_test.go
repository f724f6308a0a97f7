package repro

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (§6–7), plus ablations of the design choices DESIGN.md
// calls out and microbenchmarks of every substrate. Run:
//
//	go test -bench=. -benchmem
//
// Table benchmarks regenerate the experiment on a bench-scale corpus
// each iteration, so ns/op measures the cost of reproducing the row;
// cmd/esdds-repro runs the same code at paper scale.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/esdds"
	"repro/internal/chunk"
	"repro/internal/cipherx"
	"repro/internal/core"
	"repro/internal/disperse"
	"repro/internal/encode"
	"repro/internal/experiments"
	"repro/internal/gf"
	"repro/internal/phonebook"
	"repro/internal/stats"
	"repro/internal/wordindex"
)

// benchCorpus is shared across table benchmarks (building it is not part
// of the measured work).
var (
	corpusOnce  sync.Once
	benchCorpus *experiments.Corpus
	benchSample *experiments.Corpus
)

func corpora() (*experiments.Corpus, *experiments.Corpus) {
	corpusOnce.Do(func() {
		benchCorpus = experiments.NewCorpus(20000, experiments.DefaultSeed)
		benchSample = benchCorpus.Sample(1000, experiments.DefaultSeed+1)
	})
	return benchCorpus, benchSample
}

var benchKey = cipherx.KeyFromPassphrase("bench")

// --- Table and figure reproduction benchmarks ---

func BenchmarkTable1RawChi2(b *testing.B) {
	c, _ := corpora()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := experiments.RunTable1(c)
		if t.ChiTriple <= t.ChiDouble {
			b.Fatal("shape violated")
		}
	}
}

func BenchmarkTable2Dispersion(b *testing.B) {
	c, _ := corpora()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunTable2(c, benchKey)
		if err != nil {
			b.Fatal(err)
		}
		if t.ChiSingle <= 0 {
			b.Fatal("unexpected uniformity")
		}
	}
}

func BenchmarkTable3Preprocess(b *testing.B) {
	c, _ := corpora()
	for _, cell := range []struct{ cs, enc int }{
		{1, 8}, {2, 16}, {4, 64}, {6, 128},
	} {
		b.Run(fmt.Sprintf("cs=%d/enc=%d", cell.cs, cell.enc), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunTable3Cell(c, cell.cs, cell.enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable4FalsePositives(b *testing.B) {
	_, sample := corpora()
	small := sample.Sample(300, 3) // keep per-iteration cost sane
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable4(small); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5ChunkEncoding(b *testing.B) {
	_, sample := corpora()
	small := sample.Sample(300, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable5(small); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5Training(b *testing.B) {
	_, sample := corpora()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure5(sample); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRandomnessBattery(b *testing.B) {
	_, sample := corpora()
	small := sample.Sample(200, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunRandomness(small, benchKey); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks (design choices in DESIGN.md §5) ---

var sinkU64 uint64

// BenchmarkDispersionMatrix compares dispersal matrix families at the
// paper's recommended K=4.
func BenchmarkDispersionMatrix(b *testing.B) {
	for _, kind := range []struct {
		name string
		k    disperse.MatrixKind
		g    uint
	}{
		{"cauchy-4x4-gf16", disperse.MatrixCauchy, 16},
		{"vandermonde-4x4-gf16", disperse.MatrixVandermonde, 16},
		{"random-4x4-gf2", disperse.MatrixRandom, 2},
		{"randomdense-4x4-gf4", disperse.MatrixRandomDense, 4},
	} {
		d, err := disperse.New(disperse.Params{K: 4, G: kind.g, Kind: kind.k, Key: benchKey})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(kind.name, func(b *testing.B) {
			dst := make([]disperse.Piece, 4)
			mask := uint64(1)<<d.ChunkBits() - 1
			for i := 0; i < b.N; i++ {
				d.DisperseInto(dst, uint64(i)&mask)
			}
		})
	}
}

// BenchmarkChunkingsAblation measures insert+search cost as the number
// of chunkings M grows at fixed S: the storage/robustness knob of §2.5.
func BenchmarkChunkingsAblation(b *testing.B) {
	entries := phonebook.Generate(500, 1)
	for _, m := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			pl, err := core.NewPipeline(core.Params{
				Chunk:      chunk.Params{S: 4, M: m},
				DisperseK:  1,
				MatrixKind: disperse.MatrixRandom,
				Key:        benchKey,
			})
			if err != nil {
				b.Fatal(err)
			}
			ix := core.NewMemIndex(pl)
			for i, e := range entries {
				if err := ix.Insert(uint64(i), []byte(e.Name)); err != nil {
					b.Fatal(err)
				}
			}
			query := []byte("MARTINEZ")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ix.Search(query, core.VerifyAny); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelSearch measures end-to-end distributed search as the
// node count grows (the paper's parallel-scan scaling claim).
func BenchmarkParallelSearch(b *testing.B) {
	entries := phonebook.Generate(2000, 2)
	for _, nodes := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			cluster := esdds.NewMemoryCluster(nodes)
			defer cluster.Close()
			store, err := esdds.Open(cluster, esdds.KeyFromPassphrase("bench"), esdds.Config{
				ChunkSize: 4,
				Chunkings: 2,
			}, nil)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			for i, e := range entries {
				if err := store.Insert(ctx, uint64(i), []byte(e.Name)); err != nil {
					b.Fatal(err)
				}
			}
			query := []byte("MARTINEZ")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := store.Search(ctx, query, esdds.SearchFast); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVerifyModes compares the three verification strengths.
func BenchmarkVerifyModes(b *testing.B) {
	entries := phonebook.Generate(1000, 3)
	cluster := esdds.NewMemoryCluster(4)
	defer cluster.Close()
	store, err := esdds.Open(cluster, esdds.KeyFromPassphrase("bench"), esdds.Config{
		ChunkSize: 4,
		Chunkings: 4,
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for i, e := range entries {
		if err := store.Insert(ctx, uint64(i), []byte(e.Name)); err != nil {
			b.Fatal(err)
		}
	}
	query := []byte("MARTINEZ")
	for _, mode := range []esdds.SearchMode{esdds.SearchFast, esdds.SearchVerified, esdds.SearchExact} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := store.Search(ctx, query, mode); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Substrate microbenchmarks ---

func BenchmarkGFMul(b *testing.B) {
	for _, g := range []uint{4, 8, 16} {
		f := gf.MustNew(g)
		mask := gf.Elem(f.Mask())
		b.Run(fmt.Sprintf("gf%d", 1<<g), func(b *testing.B) {
			var acc gf.Elem = 1
			for i := 0; i < b.N; i++ {
				acc = f.Mul(acc|1, gf.Elem(i)&mask|1)
			}
			sinkU64 = uint64(acc)
		})
	}
}

func BenchmarkCodebookTrain(b *testing.B) {
	c, _ := corpora()
	names := c.Names[:5000]
	for _, gs := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("group=%d", gs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := encode.Train(names, gs, 32); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkChiSquare(b *testing.B) {
	c, _ := corpora()
	b.Run("triplets-30-alphabet", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			counter := stats.NewNGramCounter(3)
			for _, name := range c.Names[:5000] {
				counter.AddBytes(name)
			}
			if counter.ChiSquare(len(c.Alphabet)) <= 0 {
				b.Fatal("unexpected")
			}
		}
	})
}

// BenchmarkWordSearch measures the [SWP00] word-index path end to end.
func BenchmarkWordSearch(b *testing.B) {
	entries := phonebook.Generate(2000, 4)
	cluster := esdds.NewMemoryCluster(4)
	defer cluster.Close()
	store, err := esdds.Open(cluster, esdds.KeyFromPassphrase("bench"), esdds.Config{
		ChunkSize:  4,
		Chunkings:  2,
		WordSearch: true,
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for i, e := range entries {
		if err := store.Insert(ctx, uint64(i), []byte(e.Name)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.SearchWord(ctx, []byte("MARTINEZ")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWordTokens measures client-side token derivation.
func BenchmarkWordTokens(b *testing.B) {
	ix := wordindex.New(benchKey, nil)
	content := []byte("ABOGADO ALEJANDRO & CATHERINE SCHWARZ THOMAS JUNIOR")
	b.SetBytes(int64(len(content)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := ix.Tokens(content); len(got) == 0 {
			b.Fatal("no tokens")
		}
	}
}

// BenchmarkStorageTradeoffRow regenerates one §2.5 ablation row.
func BenchmarkStorageTradeoffRow(b *testing.B) {
	_, sample := corpora()
	small := sample.Sample(200, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunStorageTradeoff(small, 4); err != nil {
			b.Fatal(err)
		}
	}
}
