package sdds

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/rs"
	"repro/internal/transport"
)

// ErrNeverSynced reports a recovery attempted before
// the guardian's first successful Sync: there is no recovery point, so
// there is nothing to restore. Callers automating repair should treat
// it as "restart the node empty", not as a parity failure.
var ErrNeverSynced = errors.New("sdds: guardian has never synced; nothing to recover from")

// Guardian is the LH*RS availability layer applied to whole nodes: it
// keeps every node's serialized bucket inventory (its "image") under
// Reed–Solomon parity, so that up to K simultaneous node losses can be
// recovered with zero record loss. The guardian plays the role of the
// paper's dedicated parity sites: data shards live on the storage
// nodes themselves, parity shards live with the guardian.
//
// Protocol: Sync pulls a deterministic image from every node and
// updates the parity group (delta-based, per LH*RS); after a failure,
// Recover reconstructs the dead nodes' images from the survivors'
// last-synced shards plus parity and pushes them onto replacement
// nodes registered under the same IDs.
//
// The recovery point is the last Sync — exactly LH*RS semantics, where
// parity sites are updated synchronously with data changes; callers
// wanting a tighter recovery point simply sync more often (each Sync
// costs one broadcast plus an rs update per changed node).
type Guardian struct {
	tr    transport.Transport
	place *Placement

	mu       sync.Mutex
	group    *rs.BucketGroup
	pos      map[transport.NodeID]int // node → data shard index
	synced   bool
	syncedAt time.Time
	syncSeq  uint64
	now      func() time.Time // injectable clock for tests

	met guardianMetrics // set by Instrument before traffic; nil-safe
}

// NewGuardian builds a guardian over the placement's nodes with k
// parity shards (tolerating any k simultaneous node failures).
func NewGuardian(tr transport.Transport, place *Placement, k int) (*Guardian, error) {
	nodes := place.Nodes()
	group, err := rs.NewBucketGroup(len(nodes), k)
	if err != nil {
		return nil, err
	}
	pos := make(map[transport.NodeID]int, len(nodes))
	for i, n := range nodes {
		pos[n] = i
	}
	return &Guardian{tr: tr, place: place, group: group, pos: pos, now: time.Now}, nil
}

// K returns the number of parity shards (tolerated failures).
func (g *Guardian) K() int { return g.group.K() }

// M returns the number of protected nodes.
func (g *Guardian) M() int { return g.group.M() }

// Sync pulls the current image from every node and folds it into the
// parity group. It must run while all nodes are healthy; a node that
// cannot be reached fails the sync (syncing around a hole would silently
// move the recovery point backwards for that node).
func (g *Guardian) Sync(ctx context.Context) error {
	start := time.Now()
	err := g.sync(ctx)
	g.met.syncs.Inc()
	g.met.syncNS.Observe(time.Since(start).Nanoseconds())
	if err != nil {
		g.met.syncErrors.Inc()
	}
	return err
}

func (g *Guardian) sync(ctx context.Context) error {
	nodes := g.place.Nodes()
	results := transport.Broadcast(ctx, g.tr, nodes, opNodeSnapshot, nil)
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("sdds: guardian sync: snapshot of node %d: %w", r.Node, r.Err)
		}
	}
	for _, r := range results {
		if err := g.group.Update(g.pos[r.Node], r.Payload); err != nil {
			return fmt.Errorf("sdds: guardian sync: node %d: %w", r.Node, err)
		}
	}
	g.synced = true
	g.syncedAt = g.now()
	g.syncSeq++
	return nil
}

// LastSync reports the recovery point: the time of the last successful
// Sync and a monotonically increasing sync sequence number (0 means
// never synced).
func (g *Guardian) LastSync() (time.Time, uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.syncedAt, g.syncSeq
}

// Synced reports whether at least one Sync has completed.
func (g *Guardian) Synced() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.synced
}

// Recover reconstructs the images of the dead nodes from the survivors'
// last-synced shards plus parity, and pushes each image to the
// replacement node now registered under the dead node's ID. More than K
// dead nodes fails loudly (the MDS bound), as does recovering before
// any Sync.
func (g *Guardian) Recover(ctx context.Context, dead []transport.NodeID) error {
	if len(dead) == 0 {
		return nil
	}
	start := time.Now()
	err := g.recover(ctx, dead)
	g.met.recovers.Inc()
	g.met.recoverNS.Observe(time.Since(start).Nanoseconds())
	if err != nil {
		g.met.recoverErrs.Inc()
	}
	return err
}

func (g *Guardian) recover(ctx context.Context, dead []transport.NodeID) error {
	g.mu.Lock()
	if !g.synced {
		g.mu.Unlock()
		return ErrNeverSynced
	}
	shards := g.group.Shards()
	for _, d := range dead {
		i, ok := g.pos[d]
		if !ok {
			g.mu.Unlock()
			return fmt.Errorf("sdds: guardian does not protect node %d", d)
		}
		shards[i] = nil
	}
	err := g.group.RecoverShards(shards)
	g.mu.Unlock()
	if err != nil {
		return fmt.Errorf("sdds: guardian recovery: %w", err)
	}
	for _, d := range dead {
		img := shards[g.pos[d]]
		if _, err := g.tr.Send(ctx, d, opNodeRestore, img); err != nil {
			return fmt.Errorf("sdds: guardian restore of node %d: %w", d, err)
		}
	}
	return nil
}

// Scrub verifies the parity shards against the last-synced images.
func (g *Guardian) Scrub() (bool, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.group.Scrub()
}
