package sdds

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/lhstar"
)

// TestGrowthMatchesModel drives seeded batched writes of 1–8 entries
// and checks after every one that the file is exactly where the LH*
// rule puts a file holding the live set: a model lhstar.State split
// while Overloaded after puts and merged while Underloaded after
// deletes, against the exact live count. Deletes take ~30 % of the
// first half's rounds and ~80 % of the second's, so the file grows and
// then shrinks back.
func TestGrowthMatchesModel(t *testing.T) {
	ctx := context.Background()
	for _, maxLoad := range []int{4, 8, 16} {
		c := memCluster(t, 3)
		c.SetMaxLoad(FileRecords, maxLoad)
		rng := rand.New(rand.NewSource(int64(maxLoad)))
		var model lhstar.State
		var live []uint64          // the live keys, in no order
		at := make(map[uint64]int) // key → its index in live
		const rounds, turn = 3000, 1500
		for round := 0; round < rounds; round++ {
			del := rng.Intn(10) < 3
			if round >= turn {
				del = rng.Intn(10) < 8
			}
			keys := make([]uint64, 1+rng.Intn(8))
			for i := range keys {
				keys[i] = rng.Uint64() >> 8 // fresh: new on a put, a miss on a delete
				// 1 in 8 puts overwrites a live key; 7 in 8 deletes hit one.
				if len(live) > 0 && (rng.Intn(8) == 0) != del {
					keys[i] = live[rng.Intn(len(live))]
				}
			}
			err := c.write(ctx, []writeFile{{id: FileRecords, del: del}}, func(r *writeRound) {
				for _, k := range keys {
					if w := r.add(0, k); !del {
						w.raw([]byte{1})
					}
				}
			})
			if err != nil {
				t.Fatalf("maxLoad %d round %d: %v", maxLoad, round, err)
			}
			for _, k := range keys {
				i, ok := at[k]
				switch {
				case !del && !ok:
					at[k] = len(live)
					live = append(live, k)
				case del && ok:
					last := live[len(live)-1]
					live[i], at[last] = last, i
					live = live[:len(live)-1]
					delete(at, k)
				}
			}
			for !del && model.Overloaded(len(live), maxLoad) {
				model.AdvanceSplit()
			}
			for del && model.Underloaded(len(live), maxLoad) {
				model.RetreatSplit()
			}
			if got := c.coord.File(FileRecords).State; got != model {
				t.Fatalf("maxLoad %d round %d: State %+v, model %+v for %d live", maxLoad, round, got, model, len(live))
			}
			if got := c.coord.File(FileRecords).Size; got != len(live) {
				t.Fatalf("maxLoad %d round %d: Size %d, %d live", maxLoad, round, got, len(live))
			}
		}
		if splits, _ := c.Stats(FileRecords); splits == 0 || c.coord.File(FileRecords).Merges == 0 {
			t.Errorf("maxLoad %d: %d splits, %d merges; want both", maxLoad, splits, c.coord.File(FileRecords).Merges)
		}
	}
}

// TestDeleteMissingKeyNoMerge: at the merge boundary, a delete that
// finds no key leaves the count and the file's shape alone.
func TestDeleteMissingKeyNoMerge(t *testing.T) {
	c := memCluster(t, 3)
	c.SetMaxLoad(FileRecords, 4)
	ctx := context.Background()
	for k := uint64(0); k < 100; k++ {
		if err := c.Put(ctx, FileRecords, k, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 80; k++ {
		if _, err := c.Delete(ctx, FileRecords, k); err != nil {
			t.Fatal(err)
		}
	}
	before, merges := c.coord.File(FileRecords).State, c.coord.File(FileRecords).Merges
	if !before.Underloaded(19, 4) {
		t.Fatalf("state %+v is not at the merge boundary", before)
	}
	if existed, err := c.Delete(ctx, FileRecords, 99999); err != nil || existed {
		t.Fatalf("deleting a missing key = %v, %v", existed, err)
	}
	if c.coord.File(FileRecords).State != before || c.coord.File(FileRecords).Size != 20 || c.coord.File(FileRecords).Merges != merges {
		t.Errorf("missing-key delete moved the file: %+v → %+v, size %d, merges %d → %d",
			before, c.coord.File(FileRecords).State, c.coord.File(FileRecords).Size, merges, c.coord.File(FileRecords).Merges)
	}
}
