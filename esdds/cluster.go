package esdds

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/sdds"
	"repro/internal/transport"
	"repro/internal/wal"
)

// Cluster is a handle to a set of storage nodes: either an in-process
// simulated multicomputer or real TCP daemons. For chaos testing, the
// transports the cluster builds can carry a deterministic fault
// injector. Nothing below the caller re-sends a failed request: an
// operation that fails returns its error, and re-running it is the
// caller's call (DESIGN.md §7).
type Cluster struct {
	inner *sdds.Cluster
	close []func() error

	// faulty is the fault injector (nil without WithFaultInjection).
	faulty *transport.Faulty

	// self-healing availability loop (nil without WithSelfHealing).
	det *transport.Detector
	sup *sdds.Supervisor

	// memory-cluster internals enabling node kill/revive for chaos and
	// recovery scenarios (nil for dialed clusters)
	mem   *transport.Memory
	peers transport.Transport
	place *sdds.Placement

	// linearScan turns off the node-side posting index on every node
	// the cluster hosts, revived ones included: the reference full-scan
	// path the equivalence tests compare the index against.
	linearScan bool

	// met is the shared metrics registry (nil without WithObservability).
	met *obs.Registry

	// durable node state (WithDataDir; empty/nil otherwise). storeMu
	// guards the maps: the supervisor's reviver mutates them from its
	// own goroutine.
	dataDir  string
	storeMu  sync.Mutex
	nodes    map[int]*sdds.Node
	stores   map[int]*wal.Store
	recovery map[int]NodeRecovery
}

// NodeRecovery reports how a durable node's local state came to be at
// its most recent (re)start: "fresh" (no store files found) or
// "recovered" (checkpoint+journal replayed). A node whose journal fails
// verification never starts, so it has no NodeRecovery.
type NodeRecovery struct {
	Outcome string
}

// ClusterOption configures the transport stack of a cluster.
type ClusterOption func(*clusterConfig)

type clusterConfig struct {
	faultSeed  *int64
	linearScan bool
	selfHeal   *SelfHealingConfig
	dataDir    string
	observe    bool
	// clk times the self-healing loop and injected fault delays: the
	// wall clock unless a test steps a fake one.
	clk clock.Clock
}

// WithDataDir makes every node durable: each journals its mutations to
// a checksummed write-ahead log (with periodic checkpoints) under
// dir/node-<id>/ and replays it on restart, so reopening a cluster over
// the same directory — or reviving a killed node — recovers its state
// from its own journal. A journal that fails checksum verification is
// an error wrapping wal.ErrCorrupt, and its files are left untouched:
// the node does not start. Only meaningful for clusters that host their
// own nodes (memory and local-TCP); DialCluster rejects it — a dialed
// daemon owns its own data directory (see cmd/esdds-node -data-dir).
func WithDataDir(dir string) ClusterOption {
	return func(c *clusterConfig) { c.dataDir = dir }
}

// WithFaultInjection inserts a seeded, deterministic fault injector
// into the cluster's transports. Configure it through Cluster.Faults().
func WithFaultInjection(seed int64) ClusterOption {
	return func(c *clusterConfig) { c.faultSeed = &seed }
}

func applyOptions(opts []ClusterOption) clusterConfig {
	cfg := clusterConfig{clk: clock.Real{}}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// stack layers the configured middleware over a base transport:
// base → Faulty (WithFaultInjection) → Watch (WithSelfHealing). The
// detector probes the transport below Watch, so a probe is never
// counted twice.
func (cfg *clusterConfig) stack(base transport.Transport, c *Cluster) transport.Transport {
	tr := base
	if cfg.faultSeed != nil {
		c.faulty = transport.NewFaulty(tr, *cfg.faultSeed, cfg.clk)
		c.faulty.Instrument(c.met)
		tr = c.faulty
	}
	if cfg.selfHeal != nil {
		// The detector probes tr, the transport below its own Watch;
		// every client send doubles as a health observation, so a
		// failure surfaces faster than the probe period.
		sh := cfg.selfHeal
		c.det = transport.NewDetector(tr, c.place.Nodes(), transport.DetectorPolicy{
			ProbeOp:       sdds.PingOp,
			ProbeInterval: sh.ProbeInterval,
			ProbeTimeout:  sh.ProbeTimeout,
			DownAfter:     sh.DownAfter,
		})
		c.det.Instrument(c.met)
		tr = c.det.Watch(tr)
	}
	return tr
}

// newCluster builds what every constructor starts from: the dense node
// IDs 0..n-1 (at least one), their placement, and the metrics registry
// when WithObservability asked for one.
func newCluster(n int, cfg *clusterConfig) (*Cluster, []transport.NodeID) {
	if n < 1 {
		n = 1
	}
	ids := make([]transport.NodeID, n)
	for i := range ids {
		ids[i] = transport.NodeID(i)
	}
	place, err := sdds.NewPlacement(ids)
	if err != nil {
		panic("esdds: " + err.Error()) // n >= 1 makes this impossible
	}
	c := &Cluster{place: place, linearScan: cfg.linearScan}
	if cfg.observe {
		c.met = obs.NewRegistry()
	}
	return c, ids
}

// newNode builds a hosted node the one way every hosted node is built —
// forwarding over c.peers, posting index unless linearScan,
// instrumented, durable store (WithDataDir) attached and replayed — and
// returns it ready to serve.
func (c *Cluster) newNode(id transport.NodeID) (*sdds.Node, error) {
	node := sdds.NewNode(id, c.peers, c.place)
	if c.linearScan {
		node.DisablePostingIndex()
	}
	node.Instrument(c.met)
	if err := c.attachNodeStore(int(id), node); err != nil {
		return nil, err
	}
	return node, nil
}

// NewMemoryCluster simulates a multicomputer of n storage nodes inside
// the current process. Every distributed code path (addressing,
// forwarding, splits, scatter-gather search) runs exactly as it would
// over a network. Fault injection and the self-healing detector's
// watch cover both client operations and server-to-server forwarding.
func NewMemoryCluster(n int, opts ...ClusterOption) *Cluster {
	cfg := applyOptions(opts)
	c, ids := newCluster(n, &cfg)
	c.mem = transport.NewMemory()
	c.initStores(cfg.dataDir)
	c.close = append(c.close, c.mem.Close)
	tr := cfg.stack(c.mem, c)
	c.peers = tr
	for _, id := range ids {
		node, err := c.newNode(id)
		if err != nil {
			panic("esdds: " + err.Error()) // unusable or corrupt data dir
		}
		c.mem.Register(id, node.Handler())
	}
	c.inner = sdds.NewCluster(tr, c.place)
	c.inner.Instrument(c.met)
	if err := c.attachMigrationLog(); err != nil {
		panic("esdds: " + err.Error()) // unusable data dir
	}
	if cfg.selfHeal != nil {
		if err := c.enableSelfHealing(cfg.clk); err != nil {
			panic("esdds: " + err.Error()) // self-healing without a data dir
		}
	}
	return c
}

// DialCluster connects to running esdds-node daemons. addrs maps node
// IDs (0..n-1, dense) to host:port addresses. Options layer fault
// injection (for failure drills against live daemons) and the
// self-healing detector's watch over the client transport.
func DialCluster(addrs map[int]string, opts ...ClusterOption) (*Cluster, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("esdds: empty cluster address map")
	}
	cfg := applyOptions(opts)
	if cfg.dataDir != "" {
		return nil, fmt.Errorf("esdds: WithDataDir requires a cluster that hosts its own nodes; daemons own their data dirs (esdds-node -data-dir)")
	}
	c, ids := newCluster(len(addrs), &cfg)
	dir := make(map[transport.NodeID]string, len(addrs))
	for _, id := range ids {
		addr, ok := addrs[int(id)]
		if !ok {
			return nil, fmt.Errorf("esdds: node IDs must be dense 0..n-1; missing %d", id)
		}
		dir[id] = addr
	}
	tcp := transport.NewTCP(dir)
	tcp.Instrument(c.met)
	c.close = append(c.close, tcp.Close)
	c.inner = sdds.NewCluster(cfg.stack(tcp, c), c.place)
	c.inner.Instrument(c.met)
	if cfg.selfHeal != nil {
		if err := c.enableSelfHealing(cfg.clk); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// StartLocalTCPCluster spins up n real TCP node daemons on loopback in
// this process and returns a cluster dialed to them — the quickest way
// to exercise the full network stack. Close shuts the daemons down.
func StartLocalTCPCluster(n int, opts ...ClusterOption) (_ *Cluster, err error) {
	cfg := applyOptions(opts)
	c, ids := newCluster(n, &cfg)
	// Everything acquired below joins c.close as it is acquired, so one
	// c.Close unwinds a bring-up that fails part-way.
	defer func() {
		if err != nil {
			c.Close() //nolint:errcheck // best-effort unwind; err is the one to report
		}
	}()
	// A bound listener is closed by this entry until a server takes it.
	var unserved []net.Listener
	c.close = append(c.close, func() error {
		for _, lis := range unserved {
			lis.Close() //nolint:errcheck // never served a connection
		}
		return nil
	})
	addrs := make(map[transport.NodeID]string, len(ids))
	for _, id := range ids {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		unserved = append(unserved, lis)
		addrs[id] = lis.Addr().String()
	}
	c.initStores(cfg.dataDir)
	peers := transport.NewTCP(addrs)
	peers.Instrument(c.met)
	c.peers = peers
	c.close = append(c.close, peers.Close)
	for _, id := range ids {
		node, err := c.newNode(id)
		if err != nil {
			return nil, err
		}
		srv := transport.NewServer(node.Handler())
		srv.Instrument(c.met)
		c.close = append(c.close, srv.Close)
		go srv.Serve(unserved[0])
		unserved = unserved[1:]
	}
	tcp := transport.NewTCP(addrs)
	tcp.Instrument(c.met)
	c.close = append(c.close, tcp.Close)
	c.inner = sdds.NewCluster(cfg.stack(tcp, c), c.place)
	c.inner.Instrument(c.met)
	if err := c.attachMigrationLog(); err != nil {
		return nil, err
	}
	if cfg.selfHeal != nil {
		if err := c.enableSelfHealing(cfg.clk); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// initStores prepares the durable-store bookkeeping for clusters that
// host their own nodes, and schedules the stores' graceful close. The
// node map is kept even without a data dir so revive and shutdown paths
// stay uniform.
func (c *Cluster) initStores(dataDir string) {
	c.dataDir = dataDir
	c.nodes = make(map[int]*sdds.Node)
	c.stores = make(map[int]*wal.Store)
	c.recovery = make(map[int]NodeRecovery)
	c.close = append(c.close, c.closeStores)
}

// attachNodeStore opens (or reopens) a node's durable store under the
// cluster data dir, replays whatever it holds, and records the recovery
// outcome. A store that fails verification is an error wrapping
// wal.ErrCorrupt, with its files left as they were; the node is not
// recorded and must not serve. Call before the node starts serving
// traffic.
func (c *Cluster) attachNodeStore(id int, node *sdds.Node) error {
	if c.dataDir == "" {
		c.storeMu.Lock()
		c.nodes[id] = node
		c.storeMu.Unlock()
		return nil
	}
	dir := c.nodeDir(id)
	st, err := wal.Open(wal.OSFS{}, dir, wal.Options{})
	if err != nil {
		return fmt.Errorf("esdds: opening node %d store: %w", id, err)
	}
	st.Instrument(c.met)
	out, err := node.AttachStore(st)
	if err != nil {
		st.Close() //nolint:errcheck // nothing was appended; the recovery error is the one to report
		return fmt.Errorf("esdds: node %d store in %s: %w", id, dir, err)
	}
	c.storeMu.Lock()
	defer c.storeMu.Unlock()
	c.nodes[id] = node
	c.stores[id] = st
	c.recovery[id] = NodeRecovery{Outcome: out.String()}
	return nil
}

// attachMigrationLog gives the coordinator a durable split/merge
// journal under dataDir/coordinator/, replacing the default in-memory
// ledger. A migration found in-flight in the journal (the previous
// coordinator died mid-handoff) is rolled forward or aborted right
// away — the nodes are already registered and serving by the time the
// constructors call this. Resume failures are not fatal: the intent
// stays journalled and the supervisor (or the next explicit
// ResumeMigrations call) retries. No-op for ephemeral clusters.
func (c *Cluster) attachMigrationLog() error {
	if c.dataDir == "" {
		return nil
	}
	lg, err := sdds.OpenFileMigrationLog(wal.OSFS{}, filepath.Join(c.dataDir, "coordinator"))
	if err != nil {
		return fmt.Errorf("esdds: opening migration log: %w", err)
	}
	inFlight, err := c.inner.Coordinator().AttachMigrationLog(lg)
	if err != nil {
		lg.Close() //nolint:errcheck // best-effort unwind
		return fmt.Errorf("esdds: attaching migration log: %w", err)
	}
	c.close = append(c.close, lg.Close)
	if inFlight > 0 {
		c.inner.Coordinator().ResumeMigrations(context.Background()) //nolint:errcheck // best-effort; journal keeps the intent
	}
	return nil
}

// ResumeMigrations re-drives every split/merge the coordinator's
// journal still records as in-flight, committing or aborting each.
// Returns how many were found. Safe to call on a healthy cluster (it
// finds none) — chaos harnesses call it after reviving nodes.
func (c *Cluster) ResumeMigrations(ctx context.Context) (int, error) {
	return c.inner.Coordinator().ResumeMigrations(ctx)
}

// MigrationStats reports the coordinator's migration ledger: lifetime
// started/committed/aborted counts (durable across restarts with
// WithDataDir), in-process resume count, and migrations currently
// in-flight. Invariant: Started == Committed + Aborted + InFlight.
func (c *Cluster) MigrationStats() sdds.MigrationStats {
	return c.inner.Coordinator().MigrationStats()
}

// closeStores gracefully checkpoints and closes every durable node
// store (no-op for ephemeral clusters and already-killed nodes).
func (c *Cluster) closeStores() error {
	c.storeMu.Lock()
	ids := make([]int, 0, len(c.nodes))
	for id := range c.nodes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	nodes := make([]*sdds.Node, len(ids))
	for i, id := range ids {
		nodes[i] = c.nodes[id]
	}
	c.storeMu.Unlock()
	var first error
	for _, node := range nodes {
		if err := node.CloseStore(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// NodeRecovery reports how a durable node's state came to be at its
// most recent (re)start; ok is false for ephemeral nodes (no data dir)
// and dialed clusters.
func (c *Cluster) NodeRecovery(id int) (NodeRecovery, bool) {
	c.storeMu.Lock()
	defer c.storeMu.Unlock()
	rec, ok := c.recovery[id]
	return rec, ok
}

// Nodes returns the cluster's node count: the placement's membership,
// which a killed node stays in.
func (c *Cluster) Nodes() int { return len(c.place.Nodes()) }

// Faults returns the fault injector, or nil unless the cluster was
// built with WithFaultInjection. Use it to schedule drops, delays,
// duplicate deliveries, and node blackouts.
func (c *Cluster) Faults() *transport.Faulty { return c.faulty }

// KillNode abruptly removes an in-memory node: its handler is
// deregistered (sends fail) and its state is gone — a crashed site.
// Only supported on memory clusters.
func (c *Cluster) KillNode(id int) error {
	if c.mem == nil {
		return fmt.Errorf("esdds: KillNode requires a memory cluster")
	}
	c.mem.Unregister(transport.NodeID(id))
	// Tear the durable store down without flushing — the crash
	// semantics. Whatever the journal discipline already made durable is
	// exactly what a revival finds.
	c.storeMu.Lock()
	st := c.stores[id]
	c.storeMu.Unlock()
	if st != nil {
		st.Abort()
	}
	return nil
}

// ReviveNode restarts a killed node under its ID from its own durable
// store: it reopens the store, replays checkpoint+journal, and rejoins
// already whole. It requires WithDataDir, and it refuses to register a
// node that cannot vouch for its state: a journal that fails
// verification returns an error wrapping wal.ErrCorrupt, and a store
// that comes back fresh (the data dir was lost) returns one wrapping
// sdds.ErrNodeStateLost. The node then stays down, and searches return
// an IncompleteError naming it. Only supported on memory clusters.
func (c *Cluster) ReviveNode(id int) error {
	if c.mem == nil {
		return fmt.Errorf("esdds: ReviveNode requires a memory cluster")
	}
	if c.dataDir == "" {
		return fmt.Errorf("esdds: ReviveNode requires WithDataDir: an ephemeral node has nothing to revive from")
	}
	node, err := c.newNode(transport.NodeID(id))
	if err != nil {
		return err
	}
	if rec, _ := c.NodeRecovery(id); rec.Outcome == wal.OutcomeFresh.String() {
		// Opening the store stamped a new journal into the empty dir;
		// take it back out, so a later revive finds the disk as lost as
		// this one did instead of an empty journal that replays cleanly.
		c.storeMu.Lock()
		st := c.stores[id]
		c.storeMu.Unlock()
		st.Abort()
		os.Remove(filepath.Join(c.nodeDir(id), "wal.log")) //nolint:errcheck // best effort; the refusal is what matters
		return fmt.Errorf("esdds: reviving node %d: store came back fresh: %w", id, sdds.ErrNodeStateLost)
	}
	c.mem.Register(transport.NodeID(id), node.Handler())
	return nil
}

// nodeDir is a hosted node's store directory under the data dir.
func (c *Cluster) nodeDir(id int) string {
	return filepath.Join(c.dataDir, fmt.Sprintf("node-%d", id))
}

// Close releases transports and stops any in-process daemons.
func (c *Cluster) Close() error {
	var first error
	for _, fn := range c.close {
		if err := fn(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
