package esdds

import (
	"context"
	"time"

	"repro/internal/sdds"
)

// SoakClusterOptions is the option set the soak harness (cmd/esdds-soak)
// runs clusters with: full observability (client-side histograms plus
// the counters the harness scrapes).
func SoakClusterOptions() []ClusterOption {
	return []ClusterOption{WithObservability()}
}

// OverloadClusterOptions is SoakClusterOptions plus self-healing with
// deliberately patient detection (confirming a node down takes ~25s of
// consecutive probe failures), for soaks that offer more than the
// cluster can drain (DESIGN.md §13). The soak gates it at zero
// repairs: saturation must read as a slow node, never as a dead one.
// Meant for a dialed cluster of daemons (esdds-soak -cluster proc); a
// cluster that hosts its own nodes also needs WithDataDir, because
// self-healing only ever revives a node from its own journal.
func OverloadClusterOptions() []ClusterOption {
	return append(SoakClusterOptions(), WithSelfHealing(SelfHealingConfig{
		ProbeInterval: 250 * time.Millisecond,
		ProbeTimeout:  5 * time.Second,
		DownAfter:     5,
	}))
}

// BucketPlacement locates one bucket of the store on the cluster, with
// its current load — the server-side census behind the soak harness's
// growth accounting ("which nodes did the file actually spread to").
type BucketPlacement struct {
	// File is "records" or "index".
	File string
	// Node is the hosting cluster node.
	Node int
	// Addr is the bucket's LH* address; Level its split level.
	Addr  uint64
	Level uint
	// Size is the number of entries currently in the bucket.
	Size int
}

// Inventory asks every node for its buckets of both SDDS files. The
// result is the cluster's own account of where the file has grown,
// which the soak harness cross-checks against client-side split
// counters and uses to report how many nodes the load actually reached.
func (s *Store) Inventory(ctx context.Context) ([]BucketPlacement, error) {
	var out []BucketPlacement
	for _, f := range []struct {
		id   sdds.FileID
		name string
	}{
		{sdds.FileRecords, "records"},
		{sdds.FileIndex, "index"},
	} {
		infos, err := s.cluster.BucketInventory(ctx, f.id)
		if err != nil {
			return nil, err
		}
		for _, b := range infos {
			out = append(out, BucketPlacement{
				File:  f.name,
				Node:  int(b.Node),
				Addr:  b.Addr,
				Level: b.Level,
				Size:  b.Size,
			})
		}
	}
	return out, nil
}
