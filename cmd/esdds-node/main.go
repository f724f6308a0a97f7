// Command esdds-node runs one storage node of the encrypted searchable
// SDDS as a TCP daemon. Nodes hold no key material: they store sealed
// records and opaque index pieces, and execute substring matching on
// ciphertext.
//
// A 3-node cluster on one machine:
//
//	esdds-node -id 0 -listen 127.0.0.1:7001 -peers 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 &
//	esdds-node -id 1 -listen 127.0.0.1:7002 -peers 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 &
//	esdds-node -id 2 -listen 127.0.0.1:7003 -peers 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 &
//
// The -peers list is positional: entry i is node i's address; every node
// must receive the same list so LH* forwarding can reach any bucket.
//
// Every node answers health probes (the ping opcode) automatically, so
// a client opened with esdds.WithSelfHealing can detect daemon failures.
// While a daemon is down, searches fail with an esdds.IncompleteError
// naming it; the client counts it repaired once the daemon is restarted
// under the dead node's ID and address and reports a replay of its own
// journal.
//
// With -data-dir the node is durable: every mutation is journaled to a
// checksummed write-ahead log (with periodic checkpoints) before it is
// applied, and a restarted daemon replays checkpoint+journal to rejoin
// already whole. A journal that fails verification stops the daemon
// with exit status 1, naming the directory and leaving its files as
// they are. SIGINT/SIGTERM shut down gracefully: the journal is flushed
// and a final checkpoint written.
//
// With -metrics-addr the node also serves an observability endpoint:
// GET /metrics returns the text exposition of every counter, gauge,
// and latency histogram (per-opcode timings, search-path counters, WAL
// durability work, transport byte accounting), /debug/vars the same
// registry as expvar JSON under "esdds", and /debug/pprof/ the standard
// Go profiler.
package main

import (
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/obs"
	"repro/internal/sdds"
	"repro/internal/transport"
	"repro/internal/wal"
)

func main() {
	var (
		id     = flag.Int("id", 0, "this node's ID (index into -peers)")
		listen = flag.String("listen", "127.0.0.1:7001", "listen address")
		peers  = flag.String("peers", "", "comma-separated addresses of ALL nodes, in ID order")

		dataDir = flag.String("data-dir", "", "directory for the node's write-ahead log and checkpoints (empty: in-memory only)")

		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /debug/vars, and /debug/pprof on this address (empty: disabled)")
	)
	flag.Parse()

	addrs := strings.Split(*peers, ",")
	if *peers == "" || len(addrs) == 0 {
		fmt.Fprintln(os.Stderr, "esdds-node: -peers is required")
		os.Exit(2)
	}
	if *id < 0 || *id >= len(addrs) {
		fmt.Fprintf(os.Stderr, "esdds-node: -id %d out of range for %d peers\n", *id, len(addrs))
		os.Exit(2)
	}
	ids := make([]transport.NodeID, len(addrs))
	dir := make(map[transport.NodeID]string, len(addrs))
	for i, a := range addrs {
		ids[i] = transport.NodeID(i)
		dir[transport.NodeID(i)] = strings.TrimSpace(a)
	}
	place, err := sdds.NewPlacement(ids)
	if err != nil {
		fmt.Fprintln(os.Stderr, "esdds-node:", err)
		os.Exit(1)
	}
	var reg *obs.Registry
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
	}

	// Forwards to peers are sent once: a failed forward fails the
	// client's request, and the client re-runs it.
	peerTCP := transport.NewTCP(dir)
	defer peerTCP.Close()
	peerTCP.Instrument(reg)

	node := sdds.NewNode(transport.NodeID(*id), peerTCP, place)
	node.Instrument(reg)
	if *dataDir != "" {
		st, err := wal.Open(wal.OSFS{}, *dataDir, wal.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "esdds-node: opening data dir:", err)
			os.Exit(1)
		}
		st.Instrument(reg)
		out, err := node.AttachStore(st)
		if err != nil {
			// Loud, never silent: serving empty would answer searches as
			// if the node's records never existed. The files stay as they
			// are for salvage.
			fmt.Fprintf(os.Stderr, "esdds-node: local state in %s failed verification, refusing to start: %v\n", *dataDir, err)
			os.Exit(1)
		}
		switch out {
		case wal.OutcomeRecovered:
			fmt.Printf("esdds-node %d recovered local state from %s (seq %d)\n", *id, *dataDir, st.Seq())
		default:
			fmt.Printf("esdds-node %d starting fresh journal in %s\n", *id, *dataDir)
		}
		defer func() {
			if err := node.CloseStore(); err != nil {
				fmt.Fprintln(os.Stderr, "esdds-node: closing store:", err)
			}
		}()
	}
	srv := transport.NewServer(node.Handler())
	srv.Instrument(reg)

	lis, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "esdds-node:", err)
		os.Exit(1)
	}
	fmt.Printf("esdds-node %d listening on %s (%d-node cluster)\n", *id, lis.Addr(), len(addrs))

	if reg != nil {
		reg.PublishExpvar("esdds")
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		mux.Handle("/debug/vars", expvar.Handler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mlis, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "esdds-node: metrics listener:", err)
			os.Exit(1)
		}
		defer mlis.Close()
		go http.Serve(mlis, mux) //nolint:errcheck // dies with the process
		fmt.Printf("esdds-node %d metrics on http://%s/metrics (pprof under /debug/pprof/)\n", *id, mlis.Addr())
	}

	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
		fmt.Println("esdds-node: shutting down")
		srv.Close()
		<-done
	case err := <-done:
		if err != nil {
			fmt.Fprintln(os.Stderr, "esdds-node:", err)
			if *dataDir != "" {
				node.CloseStore() //nolint:errcheck // already failing
			}
			os.Exit(1)
		}
	}
}
