// Command esdds-cli is an interactive client for an esdds cluster. It
// opens an encrypted store over running esdds-node daemons (or an
// in-process simulated cluster with -mem) and accepts commands on
// stdin:
//
//	load <file> [limit]     bulk-load a Figure-4 directory file
//	insert <rid> <content>  store one record
//	get <rid>               fetch and decrypt one record
//	delete <rid>            remove a record and its index
//	search <substring>      encrypted substring search: matching records,
//	                        decrypted, false positives filtered out
//	rawsearch <substring>   the index's matching RIDs, false positives
//	                        included
//	stats                   SDDS state (buckets, splits, IAMs) plus a
//	                        metrics summary: op counts and search
//	                        latency quantiles (p50/p90/p99)
//	metrics                 full metrics exposition (every counter,
//	                        gauge, and histogram, /metrics format)
//	health                  per-node health: detector state, probe and
//	                        passive signal counts, injected-fault
//	                        counters, and any node whose state is lost
//	heal                    wait for automatic repair to converge (-self-heal)
//	kill <node>             crash a node (-mem clusters; pairs with -self-heal)
//	quit
//
// Because the LH* split coordinator lives in the client process, load
// and search should run in one session.
//
// Example:
//
//	esdds-cli -mem 4 -passphrase secret <<EOF
//	insert 7 SCHWARZ THOMAS
//	search SCHWARZ
//	EOF
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/esdds"
	"repro/internal/phonebook"
)

func main() {
	var (
		nodes      = flag.String("nodes", "", "comma-separated node addresses (ID order)")
		mem        = flag.Int("mem", 0, "use an in-process simulated cluster of this many nodes")
		passphrase = flag.String("passphrase", "", "client master passphrase (required)")
		chunkSize  = flag.Int("chunk", 4, "index chunk size S")
		chunkings  = flag.Int("chunkings", 2, "number of chunkings M")
		disperseK  = flag.Int("disperse", 1, "dispersion sites K")
		symCodes   = flag.Int("symcodes", 0, "Stage-2 symbol encodings (0 = off)")
		trainFile  = flag.String("train", "", "directory file to train the Stage-2 codebook on")

		selfHeal  = flag.Bool("self-heal", false, "enable self-healing: revive dead nodes from their own journals (-mem needs -data-dir)")
		faultSeed = flag.Int64("fault-seed", 0, "insert a deterministic fault injector with this seed (0 = off)")
		dataDir   = flag.String("data-dir", "", "make -mem nodes durable: per-node write-ahead logs under this directory")
		observe   = flag.Bool("observe", true, "instrument every layer into a metrics registry (stats/metrics commands)")
	)
	flag.Parse()
	if *passphrase == "" {
		fmt.Fprintln(os.Stderr, "esdds-cli: -passphrase is required")
		os.Exit(2)
	}

	var opts []esdds.ClusterOption
	if *faultSeed != 0 {
		opts = append(opts, esdds.WithFaultInjection(*faultSeed))
	}
	if *selfHeal {
		if *mem > 0 && *dataDir == "" {
			fatal(fmt.Errorf("-self-heal with -mem needs -data-dir: a node is only ever revived from its own journal"))
		}
		opts = append(opts, esdds.WithSelfHealing(esdds.SelfHealingConfig{}))
	}
	if *dataDir != "" {
		opts = append(opts, esdds.WithDataDir(*dataDir))
	}
	if *observe {
		opts = append(opts, esdds.WithObservability())
	}

	var cluster *esdds.Cluster
	var err error
	switch {
	case *mem > 0:
		cluster = esdds.NewMemoryCluster(*mem, opts...)
	case *nodes != "":
		addrs := make(map[int]string)
		for i, a := range strings.Split(*nodes, ",") {
			addrs[i] = strings.TrimSpace(a)
		}
		cluster, err = esdds.DialCluster(addrs, opts...)
		if err != nil {
			fatal(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "esdds-cli: need -nodes or -mem")
		os.Exit(2)
	}
	defer cluster.Close()

	var corpus [][]byte
	if *symCodes > 0 {
		if *trainFile == "" {
			fatal(fmt.Errorf("-symcodes needs -train <directory file>"))
		}
		f, err := os.Open(*trainFile)
		if err != nil {
			fatal(err)
		}
		entries, err := phonebook.Read(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		corpus = phonebook.Names(entries)
	}

	store, err := esdds.Open(cluster, esdds.KeyFromPassphrase(*passphrase), esdds.Config{
		ChunkSize:       *chunkSize,
		Chunkings:       *chunkings,
		DispersionSites: *disperseK,
		SymbolCodes:     *symCodes,
	}, corpus)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("store open: S=%d M=%d K=%d, min query length %d\n",
		*chunkSize, *chunkings, *disperseK, store.MinQueryLen())

	repl(store, cluster)
}

func repl(store *esdds.Store, cluster *esdds.Cluster) {
	ctx := context.Background()
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		cmd, rest, _ := strings.Cut(line, " ")
		switch cmd {
		case "quit", "exit":
			return
		case "load":
			file, limitStr, _ := strings.Cut(rest, " ")
			limit := 0
			if limitStr != "" {
				limit, _ = strconv.Atoi(limitStr)
			}
			loadFile(ctx, store, file, limit)
		case "insert":
			ridStr, content, ok := strings.Cut(rest, " ")
			if !ok {
				fmt.Println("usage: insert <rid> <content>")
				continue
			}
			rid, err := strconv.ParseUint(ridStr, 10, 64)
			if err != nil {
				fmt.Println("bad rid:", err)
				continue
			}
			if err := store.Insert(ctx, rid, []byte(content)); err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Println("ok")
			}
		case "get":
			rid, err := strconv.ParseUint(rest, 10, 64)
			if err != nil {
				fmt.Println("bad rid:", err)
				continue
			}
			content, err := store.Get(ctx, rid)
			if err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Printf("%d: %s\n", rid, content)
			}
		case "delete":
			rid, err := strconv.ParseUint(rest, 10, 64)
			if err != nil {
				fmt.Println("bad rid:", err)
				continue
			}
			if err := store.Delete(ctx, rid); err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Println("ok")
			}
		case "search":
			recs, err := store.SearchRecords(ctx, []byte(rest), esdds.SearchFast)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			for _, r := range recs {
				fmt.Printf("%d: %s\n", r.RID, r.Content)
			}
			fmt.Printf("%d hit(s)\n", len(recs))
		case "rawsearch":
			rids, err := store.Search(ctx, []byte(rest), esdds.SearchFast)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("%v\n%d hit(s)\n", rids, len(rids))
		case "stats":
			st := store.Stats()
			fmt.Printf("record buckets %d (splits %d), index buckets %d (splits %d), IAMs %d\n",
				st.RecordBuckets, st.RecordSplits, st.IndexBuckets, st.IndexSplits, st.IAMs)
			printMetricsSummary(cluster)
		case "metrics":
			reg := cluster.Metrics()
			if reg == nil {
				fmt.Println("metrics disabled (run with -observe)")
				continue
			}
			fmt.Print(reg.WriteString())
		case "health":
			printHealth(cluster)
		case "heal":
			heal := cluster.SelfHealing()
			if heal == nil {
				fmt.Println("self-healing disabled (run with -self-heal)")
				continue
			}
			hctx, cancel := context.WithTimeout(ctx, 30*time.Second)
			err := heal.AwaitHealthy(hctx)
			cancel()
			switch {
			case err == nil:
				fmt.Printf("cluster healthy (%d repairs completed)\n", heal.Repairs())
			default:
				fmt.Println("error:", err)
			}
		case "kill":
			id, err := strconv.Atoi(strings.TrimSpace(rest))
			if err != nil {
				fmt.Println("usage: kill <node>")
				continue
			}
			if err := cluster.KillNode(id); err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Printf("node %d killed\n", id)
			}
		default:
			fmt.Println("commands: load insert get delete search rawsearch stats metrics health heal kill quit")
		}
	}
}

// printMetricsSummary renders the headline numbers from the metrics
// registry: client-side op counts and search latency quantiles. The
// `metrics` command dumps the full exposition.
func printMetricsSummary(cluster *esdds.Cluster) {
	reg := cluster.Metrics()
	if reg == nil {
		return
	}
	fmt.Printf("ops: puts %d gets %d deletes %d searches %d (IAMs %d)\n",
		reg.CounterValue("cluster_puts_total"),
		reg.CounterValue("cluster_gets_total"),
		reg.CounterValue("cluster_deletes_total"),
		reg.CounterValue("cluster_searches_total"),
		reg.CounterValue("cluster_iams_total"))
	if s := reg.HistogramSnapshot("cluster_search_ns"); s.Count > 0 {
		fmt.Printf("search latency: p50 %s p90 %s p99 %s (n=%d)\n",
			time.Duration(s.P50), time.Duration(s.P90), time.Duration(s.P99), s.Count)
	}
}

// printHealth renders the full availability picture: detector verdicts,
// injected-fault counters, and repair status, naming any node whose
// state is lost.
func printHealth(cluster *esdds.Cluster) {
	h := cluster.ClusterHealth()
	for _, n := range h.Nodes {
		line := fmt.Sprintf("node %d: state %s", n.Node, n.State)
		if n.State == "down" || n.State == "suspect" {
			line += fmt.Sprintf(" (consecutive failures %d, last error %q)", n.ConsecutiveFailures, n.LastError)
		}
		if n.ActiveProbes > 0 || n.PassiveSignals > 0 {
			line += fmt.Sprintf(" | probes %d passive %d", n.ActiveProbes, n.PassiveSignals)
		}
		if f := n.Faults; f != nil {
			line += fmt.Sprintf(" | faults: dropped %d failed %d delayed %d duplicated %d blacked %d",
				f.Dropped, f.Failed, f.Delayed, f.Duplicated, f.Blacked)
		}
		if n.Durability != "" {
			line += " | durability " + n.Durability
		}
		fmt.Println(line)
	}
	if m := h.Migrations; m.Started > 0 {
		line := fmt.Sprintf("migrations: %d started, %d committed, %d aborted", m.Started, m.Committed, m.Aborted)
		if m.InFlight > 0 {
			line += fmt.Sprintf(", %d IN FLIGHT (buckets frozen until resumed)", m.InFlight)
		}
		if m.Resumed > 0 {
			line += fmt.Sprintf(", %d resumed this process", m.Resumed)
		}
		fmt.Println(line)
	}
	if !h.SelfHealing {
		fmt.Println("self-healing: off")
		return
	}
	switch {
	case len(h.Lost) > 0:
		fmt.Printf("LOST: nodes %v came back without their state and stay down\n", h.Lost)
		fmt.Println("ALARM:", h.Alarm)
	case len(h.Down) > 0:
		fmt.Printf("repair in progress: nodes %v down\n", h.Down)
	default:
		fmt.Printf("self-healing: healthy (%d repairs completed)\n", h.Repairs)
	}
	line := fmt.Sprintf("repair journal: %d records", h.JournalLen)
	if h.JournalDropped > 0 {
		line += fmt.Sprintf(" (%d oldest dropped)", h.JournalDropped)
	}
	fmt.Println(line)
}

func loadFile(ctx context.Context, store *esdds.Store, file string, limit int) {
	f, err := os.Open(file)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer f.Close()
	entries, err := phonebook.Read(f)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if limit > 0 && limit < len(entries) {
		entries = entries[:limit]
	}
	for _, e := range entries {
		if err := store.Insert(ctx, e.RID(), []byte(e.Name)); err != nil {
			fmt.Println("error at", e.Phone, ":", err)
			return
		}
	}
	fmt.Printf("loaded %d records\n", len(entries))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "esdds-cli:", err)
	os.Exit(1)
}
