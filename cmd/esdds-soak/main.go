// Command esdds-soak is the production-traffic soak harness: it drives
// a real TCP cluster (in-process servers or spawned esdds-node
// daemons) through LH* growth from a single starting bucket under an
// open-loop load of phonebook traffic — Poisson arrivals at a fixed
// rate, a configurable insert/search/delete mix, zipfian query
// popularity — then audits the cluster for record loss and holds the
// measurements to declarative SLO gates.
//
//	esdds-soak -profile smoke -cluster proc -node-bin bin/esdds-node
//	esdds-soak -profile full -gate 'search.p99 < 250ms'
//
// The run writes (merges) its report into BENCH_cluster.json under its
// profile name: client-side p50/p90/p99 per op type, split/IAM/migration
// counters, a per-second latency+growth timeline, the audit verdict,
// and every gate outcome. Gates compare against absolute bounds
// ("search.p99 < 250ms", "error_rate == 0", "loss == 0") or against
// the previous BENCH entry ("search.p99 <= prev*1.5"); any failing
// gate — or a non-clean audit — fails the run with exit code 1 and a
// diff against the previous report, and leaves the baseline file
// untouched. Exit code 2 is an infrastructure error.
//
// Latency accounting is coordinated-omission-safe: each op's latency
// is measured from its *scheduled* Poisson arrival, so an overloaded
// cluster shows up as inflated tail latencies (and, past the queue
// bound, counted sheds) instead of a silently reduced offered rate.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/esdds"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/sdds"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// profile is a named soak scenario: the knobs plus its default gates.
type profile struct {
	nodes       int
	ops         int
	rate        float64
	mix         loadgen.Mix
	bucketCap   int
	maxInFlight int
	searchMode  string
	zipfS       float64
	queryPool   int
	// overload runs the cluster with patient failure detection
	// (esdds.OverloadClusterOptions), so the repairs == 0 gate asks
	// whether saturation ever reads as node death.
	overload bool
	// chaos kills one node every killEvery while the load runs (waiting
	// for the self-healing repair between kills), then drains any
	// migrations the kills left in flight before the audit. Requires
	// -cluster mem: only in-process memory nodes can be killed and
	// revived by the harness.
	chaos     bool
	killEvery time.Duration
	gates     []string
}

// profiles: "smoke" is the ~30s CI scenario (3 nodes, ~96k offered
// records through dozens of splits); "full" is the million-record soak
// the ROADMAP's heavy-traffic claim is measured by. The smoke rate and
// gates are sized to the pooled multiplexed transport: the
// request-per-turn wire shed ~29% of a 2000/s offered load (1406/s
// through), while the multiplexed wire sustains ~2.5k/s on the same
// single-CPU host — at which point CPU profiles show the bottleneck has
// moved off the wire entirely (cipher work, posting-index maintenance,
// GC). The offered*0.55 floor (2200/s at the profile's rate 4000) locks
// in that ~1.6x gain with headroom for machine noise, and scales when
// -rate is overridden; rate 4000 deliberately over-saturates so
// throughput measures capacity, which is why the latency gates are
// loose absolute bounds (queue wait dominates p99 under saturation, so
// a prev-relative ratchet would only measure the offered-rate gap).
var profiles = map[string]profile{
	"smoke": {
		nodes: 3, ops: 120000, rate: 4000,
		mix: loadgen.Mix{InsertPct: 80, SearchPct: 15, DeletePct: 5},
		// 256 in-flight ops keep the multiplexed connections' pipelines
		// full; the old request-per-turn wire saturated long before this.
		bucketCap: 512, maxInFlight: 256, searchMode: "fast",
		zipfS: 1.1, queryPool: 512,
		gates: []string{
			"error_rate == 0",
			"loss == 0",
			"ghosts == 0",
			"search_misses == 0",
			"audit_errors == 0",
			"record_splits >= 3",
			"search.p99 < 3s",
			"insert.p99 < 5s",
			"throughput >= offered*0.55",
		},
	},
	// "overload" deliberately offers more than the cluster drains
	// (7500/s against ~5.4k/s completed on a 2-vCPU host) to prove
	// graceful degradation, not to measure capacity: under saturation the
	// cluster keeps at least the smoke gate's goodput floor (2200/s * 0.7
	// = 1540/s of completed work), no op errors, the audit loses nothing,
	// the failure detector never reads saturation as death (repairs ==
	// 0). The excess waits in the load generator's bounded queue and is counted
	// as shed there. Latency gates are deliberately loose: queue wait
	// dominates the p99 under saturation, and the gate only asserts it
	// stays an order of magnitude inside the 30s op timeout
	// (degradation, not collapse).
	"overload": {
		nodes: 3, ops: 180000, rate: 7500,
		mix:       loadgen.Mix{InsertPct: 70, SearchPct: 25, DeletePct: 5},
		bucketCap: 512, maxInFlight: 768, searchMode: "fast",
		zipfS: 1.1, queryPool: 512, overload: true,
		gates: []string{
			"goodput >= 1540",
			"error_rate == 0",
			"loss == 0",
			"ghosts == 0",
			"search_misses == 0",
			"audit_errors == 0",
			"repairs == 0",
			"search.p99 < 10s",
			"insert.p99 < 15s",
		},
	},
	// "growth-chaos" is the crash-safety scenario for file growth: a
	// durable in-process cluster is driven through dozens of splits and
	// merges while the harness repeatedly kills a node mid-run and lets
	// the self-healing supervisor revive it. A kill that lands inside a
	// split/merge leaves that handoff journalled in-flight; the
	// supervisor must roll it forward when the node returns, and the
	// full read-back audit holds acknowledged-record loss at zero. Ops
	// naturally error while a node is dead (no error_rate gate) — the
	// contract is that nothing *acknowledged* is lost or duplicated and
	// no handoff is left dangling.
	"growth-chaos": {
		nodes: 3, ops: 60000, rate: 3000,
		mix:       loadgen.Mix{InsertPct: 70, SearchPct: 20, DeletePct: 10},
		bucketCap: 256, maxInFlight: 256, searchMode: "fast",
		zipfS: 1.1, queryPool: 512,
		chaos: true, killEvery: 4 * time.Second,
		gates: []string{
			"loss == 0",
			"ghosts == 0",
			"search_misses == 0",
			"audit_errors == 0",
			"record_splits >= 3",
			"repairs >= 1",
			"alarms == 0",
			"migrations_started >= 3",
			"migrations_in_flight == 0",
		},
	},
	"full": {
		nodes: 16, ops: 2500000, rate: 5000,
		mix:       loadgen.Mix{InsertPct: 50, SearchPct: 40, DeletePct: 10},
		bucketCap: 128, maxInFlight: 128, searchMode: "fast",
		zipfS: 1.1, queryPool: 2048,
		gates: []string{
			"error_rate == 0",
			"loss == 0",
			"ghosts == 0",
			"search_misses == 0",
			"audit_errors == 0",
			"record_splits >= 3",
			"search.p99 < 2s",
			"insert.p99 < 2s",
			"search.p99 <= prev*1.5",
			"insert.p99 <= prev*1.5",
			"throughput >= prev*0.67",
		},
	},
}

// stringList is a repeatable string flag.
type stringList []string

func (l *stringList) String() string     { return strings.Join(*l, "; ") }
func (l *stringList) Set(v string) error { *l = append(*l, v); return nil }

func parseSearchMode(s string) (esdds.SearchMode, error) {
	switch strings.ToLower(s) {
	case "fast":
		return esdds.SearchFast, nil
	case "verified":
		return esdds.SearchVerified, nil
	case "exact":
		return esdds.SearchExact, nil
	}
	return 0, fmt.Errorf("unknown search mode %q (fast|verified|exact)", s)
}

// storeTarget adapts esdds.Store to the loadgen Target surface with a
// fixed search mode.
type storeTarget struct {
	store *esdds.Store
	mode  esdds.SearchMode
}

func (t *storeTarget) Insert(ctx context.Context, rid uint64, content []byte) error {
	return t.store.Insert(ctx, rid, content)
}

func (t *storeTarget) Search(ctx context.Context, query []byte) ([]uint64, error) {
	return t.store.Search(ctx, query, t.mode)
}

func (t *storeTarget) Delete(ctx context.Context, rid uint64) error {
	err := t.store.Delete(ctx, rid)
	if errors.Is(err, esdds.ErrNotFound) {
		return loadgen.ErrNotFound
	}
	return err
}

func (t *storeTarget) Get(ctx context.Context, rid uint64) ([]byte, error) {
	v, err := t.store.Get(ctx, rid)
	if errors.Is(err, esdds.ErrNotFound) {
		return nil, loadgen.ErrNotFound
	}
	return v, err
}

// soakGCPercent pins GC pacing for the soak client and (via proc mode's
// spawn env) the daemons. Profiles of the saturated smoke run showed
// mark-assist work as a top client cost under the default GOGC=100;
// trading heap headroom for assist time is the standard server setting
// here, and pinning it keeps BENCH_cluster.json baselines comparable
// across hosts regardless of ambient GOGC.
const soakGCPercent = 300

func run(args []string, stdout, stderr io.Writer) int {
	debug.SetGCPercent(soakGCPercent)
	fs := flag.NewFlagSet("esdds-soak", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		profileName = fs.String("profile", "smoke", "soak profile: smoke|overload|growth-chaos|full")
		clusterMode = fs.String("cluster", "local", "cluster mode: local (in-process TCP servers), proc (spawned esdds-node daemons), or mem (killable in-process memory nodes — required by chaos profiles)")
		nodeBin     = fs.String("node-bin", "", "esdds-node binary for -cluster proc (default: look up in PATH)")
		procDir     = fs.String("proc-dir", "", "directory for daemon logs in proc mode (default: a temp dir)")

		nodes       = fs.Int("nodes", 0, "override: cluster size")
		ops         = fs.Int("ops", 0, "override: total operations")
		rate        = fs.Float64("rate", 0, "override: offered rate, ops/second")
		mixStr      = fs.String("mix", "", "override: insert/search/delete percentages, e.g. 70/25/5")
		seed        = fs.Int64("seed", 1, "deterministic seed for the op stream and arrival jitter")
		bucketCap   = fs.Int("bucket-cap", 0, "override: LH* max bucket load (smaller = more splits)")
		maxInFlight = fs.Int("max-inflight", 0, "override: bound on concurrently executing ops")
		searchMode  = fs.String("search-mode", "", "override: fast|verified|exact")
		zipfS       = fs.Float64("zipf-s", 0, "override: zipf exponent of query popularity")
		queryPool   = fs.Int("query-pool", 0, "override: distinct queries in the popularity pool")
		opTimeout   = fs.Duration("op-timeout", 30*time.Second, "per-operation deadline")
		killEvery   = fs.Duration("kill-every", 0, "override: interval between chaos node kills (chaos profiles)")

		out            = fs.String("out", "BENCH_cluster.json", "BENCH file to merge the report into")
		noDefaultGates = fs.Bool("no-default-gates", false, "drop the profile's built-in gates")
		auditReaders   = fs.Int("audit-concurrency", 16, "parallel readers for the post-soak audit")
		cpuProfile     = fs.String("cpuprofile", "", "write the load generator's CPU profile here (the client side of the soak; daemons expose /debug/pprof)")
	)
	var extraGates stringList
	fs.Var(&extraGates, "gate", "additional SLO gate, e.g. 'search.p99 < 250ms' (repeatable)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	prof, ok := profiles[*profileName]
	if !ok {
		fmt.Fprintf(stderr, "esdds-soak: unknown profile %q\n", *profileName)
		return 2
	}
	if *nodes > 0 {
		prof.nodes = *nodes
	}
	if *ops > 0 {
		prof.ops = *ops
	}
	if *rate > 0 {
		prof.rate = *rate
	}
	if *mixStr != "" {
		m, err := loadgen.ParseMix(*mixStr)
		if err != nil {
			fmt.Fprintln(stderr, "esdds-soak:", err)
			return 2
		}
		prof.mix = m
	}
	if *bucketCap > 0 {
		prof.bucketCap = *bucketCap
	}
	if *maxInFlight > 0 {
		prof.maxInFlight = *maxInFlight
	}
	if *searchMode != "" {
		prof.searchMode = *searchMode
	}
	if *zipfS > 0 {
		prof.zipfS = *zipfS
	}
	if *queryPool > 0 {
		prof.queryPool = *queryPool
	}
	if *killEvery > 0 {
		prof.killEvery = *killEvery
	}
	mode, err := parseSearchMode(prof.searchMode)
	if err != nil {
		fmt.Fprintln(stderr, "esdds-soak:", err)
		return 2
	}

	gateExprs := append([]string(nil), extraGates...)
	if !*noDefaultGates {
		gateExprs = append(append([]string(nil), prof.gates...), gateExprs...)
	}
	gates, err := loadgen.ParseGates(gateExprs)
	if err != nil {
		fmt.Fprintln(stderr, "esdds-soak:", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// --- cluster -----------------------------------------------------
	var (
		cluster  *esdds.Cluster
		nodeURLs map[int]string // proc mode: node id -> metrics base URL
		teardown func()
	)
	opts := esdds.SoakClusterOptions()
	if prof.overload {
		opts = esdds.OverloadClusterOptions()
	}
	if prof.chaos && *clusterMode != "mem" {
		fmt.Fprintf(stderr, "esdds-soak: profile %q kills nodes mid-run and needs -cluster mem\n", *profileName)
		return 2
	}
	switch *clusterMode {
	case "local":
		cluster, err = esdds.StartLocalTCPCluster(prof.nodes, opts...)
		if err != nil {
			fmt.Fprintln(stderr, "esdds-soak: starting local cluster:", err)
			return 2
		}
		teardown = func() { cluster.Close() } //nolint:errcheck // exiting
	case "mem":
		dir, derr := os.MkdirTemp("", "esdds-soak-mem-")
		if derr != nil {
			fmt.Fprintln(stderr, "esdds-soak: data dir:", derr)
			return 2
		}
		memOpts := append(append([]esdds.ClusterOption(nil), opts...), esdds.WithDataDir(dir))
		if prof.chaos {
			// Durable nodes + self-healing: a killed node is revived from
			// its own journal and the supervisor rolls any interrupted
			// split/merge handoff forward as part of finishing the repair.
			memOpts = append(memOpts, esdds.WithSelfHealing(esdds.SelfHealingConfig{
				ProbeInterval: 20 * time.Millisecond,
				ProbeTimeout:  time.Second,
				DownAfter:     3,
			}))
		}
		cluster = esdds.NewMemoryCluster(prof.nodes, memOpts...)
		teardown = func() {
			cluster.Close() //nolint:errcheck // exiting
			os.RemoveAll(dir)
		}
	case "proc":
		pc, err := startProcCluster(ctx, prof.nodes, *nodeBin, *procDir, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "esdds-soak: starting daemon cluster:", err)
			return 2
		}
		cluster, err = esdds.DialCluster(pc.addrs, opts...)
		if err != nil {
			pc.stop()
			fmt.Fprintln(stderr, "esdds-soak: dialing daemon cluster:", err)
			return 2
		}
		nodeURLs = pc.metricsURLs
		teardown = func() {
			cluster.Close() //nolint:errcheck // exiting
			pc.stop()
		}
		fmt.Fprintf(stdout, "spawned %d esdds-node daemons (logs under %s)\n", prof.nodes, pc.logDir)
	default:
		fmt.Fprintf(stderr, "esdds-soak: unknown cluster mode %q\n", *clusterMode)
		return 2
	}
	defer teardown()

	store, err := esdds.Open(cluster, esdds.KeyFromPassphrase("soak"), esdds.Config{
		ChunkSize:     4,
		MaxBucketLoad: prof.bucketCap,
	}, nil)
	if err != nil {
		fmt.Fprintln(stderr, "esdds-soak: opening store:", err)
		return 2
	}
	target := &storeTarget{store: store, mode: mode}

	// --- load --------------------------------------------------------
	minQ := store.MinQueryLenFor(mode)
	if minQ < 7 {
		minQ = 7
	}
	stream, err := loadgen.NewStream(loadgen.StreamConfig{
		Seed: *seed, Ops: prof.ops, Mix: prof.mix,
		QueryPool: prof.queryPool, ZipfS: prof.zipfS, MinQueryLen: minQ,
	})
	if err != nil {
		fmt.Fprintln(stderr, "esdds-soak:", err)
		return 2
	}
	runner, err := loadgen.NewRunner(target, loadgen.RunnerConfig{
		Rate: prof.rate, MaxInFlight: prof.maxInFlight,
		Seed: *seed, OpTimeout: *opTimeout,
	})
	if err != nil {
		fmt.Fprintln(stderr, "esdds-soak:", err)
		return 2
	}

	fmt.Fprintf(stdout, "soak %q: %d nodes, %d ops @ %.0f/s, mix %s, seed %d, search %s, bucket cap %d\n",
		*profileName, prof.nodes, prof.ops, prof.rate, prof.mix, *seed, prof.searchMode, prof.bucketCap)

	growth := watchGrowth(store)
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, "esdds-soak:", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "esdds-soak:", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	var chaos *chaosKiller
	if prof.chaos {
		chaos = startChaos(ctx, cluster, prof.killEvery, stdout)
	}
	start := time.Now()
	res, err := runner.Run(ctx, stream)
	if *cpuProfile != "" {
		pprof.StopCPUProfile() // profile the load phase only, not the audit
	}
	if err != nil {
		fmt.Fprintln(stderr, "esdds-soak: run aborted:", err)
		return 2
	}
	samples := growth.stop()
	if chaos != nil {
		kills := chaos.stop()
		fmt.Fprintf(stdout, "chaos: %d node kills; awaiting final repair...\n", kills)
		hctx, hcancel := context.WithTimeout(ctx, time.Minute)
		err := cluster.SelfHealing().AwaitHealthy(hctx)
		hcancel()
		if err != nil {
			fmt.Fprintln(stderr, "esdds-soak: cluster never healed after chaos:", err)
			return 2
		}
		// Mop up any handoff a kill left journalled in-flight — the
		// audit (and the migrations_in_flight gate) run against the
		// settled cluster.
		if n, err := cluster.ResumeMigrations(ctx); err != nil {
			fmt.Fprintln(stderr, "esdds-soak: resuming migrations after chaos:", err)
			return 2
		} else if n > 0 {
			fmt.Fprintf(stdout, "chaos: resumed %d in-flight migrations\n", n)
		}
	}
	fmt.Fprintf(stdout, "load done in %.1fs: %d completions, %d shed; auditing...\n",
		res.Elapsed.Seconds(), totalCount(res), res.Shed)

	// --- audit -------------------------------------------------------
	audit, err := loadgen.RunAudit(ctx, target, stream, runner.Ledger(), loadgen.AuditConfig{
		Concurrency: *auditReaders, MinQueryLen: minQ,
	})
	if err != nil {
		fmt.Fprintln(stderr, "esdds-soak: audit aborted:", err)
		return 2
	}

	// --- report ------------------------------------------------------
	rep := loadgen.BuildReport(*profileName, loadgen.RunConfig{
		Cluster: *clusterMode, Nodes: prof.nodes, Ops: prof.ops,
		Rate: prof.rate, Mix: prof.mix.String(), Seed: *seed,
		ZipfS: prof.zipfS, QueryPool: prof.queryPool,
		MaxInFlight: prof.maxInFlight, BucketCap: prof.bucketCap,
		SearchMode: prof.searchMode,
	}, res)
	rep.When = start.UTC().Format(time.RFC3339)
	rep.Growth = samples
	rep.Audit = audit
	rep.Cluster = clusterCounters(ctx, cluster, store, prof.nodes, stderr)
	rep.NodeMetrics = gatherNodeMetrics(ctx, cluster, nodeURLs, stderr)

	prevFile, err := loadgen.LoadBenchFile(*out)
	if err != nil {
		fmt.Fprintln(stderr, "esdds-soak:", err)
		return 2
	}
	prev := prevFile.Profiles[rep.Profile]

	outcomes, pass := loadgen.EvalGates(gates, rep, prev)
	rep.Gates = outcomes
	if !audit.Clean() {
		// Zero loss is not negotiable, gates or no gates.
		pass = false
	}

	printSummary(stdout, rep)
	for _, o := range outcomes {
		fmt.Fprintf(stdout, "gate %-28s %s\n", o.Expr, o.Detail)
	}
	if !audit.Clean() {
		fmt.Fprintf(stdout, "AUDIT FAILED: %s\n", audit.FirstProblem)
	}

	if !pass {
		fmt.Fprintf(stdout, "\nSOAK FAILED — diff vs previous %q entry in %s:\n%s", rep.Profile, *out, loadgen.DiffReports(prev, rep))
		fmt.Fprintf(stdout, "baseline %s left untouched\n", *out)
		return 1
	}
	prevFile.Put(rep)
	if err := loadgen.WriteBenchFile(*out, prevFile); err != nil {
		fmt.Fprintln(stderr, "esdds-soak: writing report:", err)
		return 2
	}
	fmt.Fprintf(stdout, "\nSOAK PASSED — report merged into %s (profile %q)\n", *out, rep.Profile)
	return 0
}

func totalCount(res *loadgen.RunResult) uint64 {
	var n uint64
	for _, st := range res.Ops {
		n += st.Count
	}
	return n
}

// chaosKiller kills one node per interval, round-robin, waiting for
// the self-healing repair to complete between kills, so each kill's
// repair is measured on its own and the harness never runs the cluster
// with more than one node down.
type chaosKiller struct {
	stopCh chan struct{}
	doneCh chan struct{}
	kills  int
}

func startChaos(ctx context.Context, cluster *esdds.Cluster, every time.Duration, stdout io.Writer) *chaosKiller {
	k := &chaosKiller{stopCh: make(chan struct{}), doneCh: make(chan struct{})}
	heal := cluster.SelfHealing()
	n := cluster.Nodes()
	go func() {
		defer close(k.doneCh)
		victim := 0
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-k.stopCh:
				return
			case <-tick.C:
			}
			repaired := cluster.ClusterHealth().Repairs
			if err := cluster.KillNode(victim); err != nil {
				fmt.Fprintf(stdout, "chaos: killing node %d: %v\n", victim, err)
				continue
			}
			k.kills++
			fmt.Fprintf(stdout, "chaos: killed node %d (kill #%d)\n", victim, k.kills)
			victim = (victim + 1) % n
			// AwaitHealthy alone truthfully reports healthy in the instant
			// before the detector has seen the kill, so first wait for the
			// repair count to move: this kill's repair, not a stale verdict.
			hctx, cancel := context.WithTimeout(ctx, time.Minute)
			var err error
			for err == nil && cluster.ClusterHealth().Repairs == repaired {
				select {
				case <-hctx.Done():
					err = hctx.Err()
				case <-time.After(10 * time.Millisecond):
				}
			}
			if err == nil {
				err = heal.AwaitHealthy(hctx)
			}
			cancel()
			if err != nil {
				fmt.Fprintf(stdout, "chaos: repair wait failed, standing down: %v\n", err)
				return
			}
			// The ticker kept running during the repair and buffered a
			// tick; without this the next kill would land the instant a
			// slow repair returns instead of one interval later. (Reset
			// alone leaves the buffered tick in place under go 1.22
			// timer semantics, hence the drain.)
			tick.Reset(every)
			select {
			case <-tick.C:
			default:
			}
		}
	}()
	return k
}

// stop halts the killer and returns how many kills it landed.
func (k *chaosKiller) stop() int {
	close(k.stopCh)
	<-k.doneCh
	return k.kills
}

// growthWatcher samples the store's LH* state once per second.
type growthWatcher struct {
	mu      sync.Mutex
	samples []loadgen.GrowthSample
	done    chan struct{}
	stopped chan struct{}
}

func watchGrowth(store *esdds.Store) *growthWatcher {
	w := &growthWatcher{done: make(chan struct{}), stopped: make(chan struct{})}
	start := time.Now()
	sample := func() {
		st := store.Stats()
		w.mu.Lock()
		w.samples = append(w.samples, loadgen.GrowthSample{
			Offset:        int(time.Since(start) / time.Second),
			RecordBuckets: st.RecordBuckets,
			IndexBuckets:  st.IndexBuckets,
			Splits:        st.RecordSplits + st.IndexSplits,
			IAMs:          st.IAMs,
		})
		w.mu.Unlock()
	}
	go func() {
		defer close(w.stopped)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				sample()
			case <-w.done:
				sample()
				return
			}
		}
	}()
	return w
}

func (w *growthWatcher) stop() []loadgen.GrowthSample {
	close(w.done)
	<-w.stopped
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.samples
}

// clusterCounters gathers end-of-run cluster-side totals: the client's
// split/IAM accounting, the self-healing and migration counters, and the
// server-side bucket census for how many nodes the file reached.
func clusterCounters(ctx context.Context, cluster *esdds.Cluster, store *esdds.Store, nodes int, stderr io.Writer) loadgen.ClusterCounters {
	st := store.Stats()
	c := loadgen.ClusterCounters{
		Nodes:         nodes,
		RecordBuckets: st.RecordBuckets,
		IndexBuckets:  st.IndexBuckets,
		RecordSplits:  st.RecordSplits,
		IndexSplits:   st.IndexSplits,
		IAMs:          st.IAMs,
	}
	if sh := cluster.SelfHealing(); sh != nil {
		c.Repairs = cluster.ClusterHealth().Repairs
		for _, r := range sh.Journal() {
			if r.Phase == sdds.RepairAlarm {
				c.Alarms++
			}
		}
	}
	ms := cluster.MigrationStats()
	c.MigStarted = ms.Started
	c.MigCommitted = ms.Committed
	c.MigAborted = ms.Aborted
	c.MigResumed = ms.Resumed
	c.MigInFlight = ms.InFlight
	invCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	inv, err := store.Inventory(invCtx)
	if err != nil {
		fmt.Fprintln(stderr, "esdds-soak: bucket inventory failed:", err)
		return c
	}
	used := map[int]bool{}
	for _, b := range inv {
		used[b.Node] = true
	}
	c.NodesUsed = len(used)
	return c
}

// interestingMetric selects the scraped series worth persisting in the
// BENCH file (split/IAM/forward traffic, WAL work, server admits and
// deadline expiries).
func interestingMetric(name string) bool {
	for _, s := range []string{"split", "iam", "forward", "wal", "expired", "admits"} {
		if strings.Contains(name, s) {
			return true
		}
	}
	return false
}

// gatherNodeMetrics folds the client registry and (in proc mode) every
// daemon's /metrics endpoint into one flat map.
func gatherNodeMetrics(ctx context.Context, cluster *esdds.Cluster, nodeURLs map[int]string, stderr io.Writer) map[string]float64 {
	out := map[string]float64{}
	if reg := cluster.Metrics(); reg != nil {
		vals, err := obs.ParseText(strings.NewReader(reg.WriteString()))
		if err == nil {
			for k, v := range vals {
				if interestingMetric(k) {
					out["client."+k] = v
				}
			}
		}
	}
	ids := make([]int, 0, len(nodeURLs))
	for id := range nodeURLs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		scrapeCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
		vals, err := obs.Scrape(scrapeCtx, nodeURLs[id]+"/metrics")
		cancel()
		if err != nil {
			fmt.Fprintf(stderr, "esdds-soak: scraping node %d: %v\n", id, err)
			continue
		}
		for k, v := range vals {
			if interestingMetric(k) {
				out[fmt.Sprintf("node%d.%s", id, k)] = v
			}
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// printSummary renders the human-readable run summary.
func printSummary(w io.Writer, rep *loadgen.Report) {
	fmt.Fprintf(w, "\n== soak %q: %d ops in %.1fs (%.0f/s, goodput %.0f/s), error rate %.4f, %d shed ==\n",
		rep.Profile, rep.Totals.Ops, rep.Totals.ElapsedSec, rep.Totals.Throughput,
		rep.Totals.Goodput, rep.Totals.ErrorRate, rep.Totals.Shed)
	kinds := make([]string, 0, len(rep.Ops))
	for k := range rep.Ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		st := rep.Ops[k]
		fmt.Fprintf(w, "%-7s n=%-8d p50=%-10v p90=%-10v p99=%-10v max=%-10v errs=%d\n",
			k, st.Count,
			time.Duration(st.P50Ns).Round(time.Microsecond),
			time.Duration(st.P90Ns).Round(time.Microsecond),
			time.Duration(st.P99Ns).Round(time.Microsecond),
			time.Duration(st.MaxNs).Round(time.Microsecond),
			st.Errors)
	}
	fmt.Fprintf(w, "growth: %d record buckets (%d splits), %d index buckets (%d splits), %d IAMs, %d/%d nodes used\n",
		rep.Cluster.RecordBuckets, rep.Cluster.RecordSplits,
		rep.Cluster.IndexBuckets, rep.Cluster.IndexSplits,
		rep.Cluster.IAMs, rep.Cluster.NodesUsed, rep.Cluster.Nodes)
	if rep.Cluster.MigStarted > 0 {
		fmt.Fprintf(w, "migrations: %d started, %d committed, %d aborted, %d resumed, %d in flight; %d repairs, %d alarms\n",
			rep.Cluster.MigStarted, rep.Cluster.MigCommitted, rep.Cluster.MigAborted,
			rep.Cluster.MigResumed, rep.Cluster.MigInFlight, rep.Cluster.Repairs, rep.Cluster.Alarms)
	}
	if a := rep.Audit; a != nil {
		fmt.Fprintf(w, "audit: %d records read back, %d missing, %d corrupt, %d ghosts (of %d), %d search checks, %d misses, %d errors (%.1fs)\n",
			a.Checked, a.Missing, a.Corrupt, a.Ghosts, a.GhostsChecked,
			a.SearchChecks, a.SearchMisses, a.Errors, a.ElapsedSec)
	}
}
