// Command benchmark is the repository's one performance yardstick: four
// closed-loop workloads against a 3-node loopback cluster, end-to-end
// metrics with tracing off, and a separate traced run that attributes an
// op's time to the layers it crosses. See README.md and ../BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDecl mirrors one metric entry of BENCHMARK.json; a test keeps the
// two in step.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var endToEnd = []metricDecl{
	{"ops_per_s", "1/s", "higher", 0.2},
	{"insert_p50_us", "us", "lower", 0.2},
	{"search_p50_us", "us", "lower", 0.2},
	{"setup_s", "s", "lower", 0.25},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is result plus everything printed for information only; -out
// writes it.
type report struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Scale      float64            `json:"scale"`
	Trace      bool               `json:"trace"`
	Workers    int                `json:"workers"`
	Preload    int                `json:"preload"`
	Ops        int                `json:"ops"`
	StreamHash string             `json:"stream_hash"`
	Result     result             `json:"result"`
	Info       map[string]float64 `json:"info"`
	Stages     []stageTable       `json:"stages,omitempty"`
	FirstError string             `json:"first_error,omitempty"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	scale    float64
	trace    bool
	workDir  string
	spans    string
	log      io.Writer
}

func main() {
	var (
		o     options
		trace int
		out   string
		aa    bool
	)
	flag.StringVar(&o.workload, "workload", "", "workload to run: ingest, ingest_durable, search or mixed")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "nominal length of the timed phase; op counts grow with it")
	flag.Float64Var(&o.scale, "scale", 1, "multiplier on every count (tests use 0.01)")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics, 0 = end-to-end metrics")
	flag.StringVar(&o.workDir, "workdir", ".bench_build/work", "scratch directory for durable nodes' data")
	flag.StringVar(&o.spans, "spans", "", "traced run: also write every span as JSON to this file")
	flag.StringVar(&out, "out", "", "also write the full report (with information-only values) as JSON to this file")
	flag.BoolVar(&aa, "aa", false, "run every workload twice on fresh state and compare the end-to-end metrics against their bounds")
	flag.Parse()
	o.trace = trace != 0
	o.log = os.Stderr
	runtime.GOMAXPROCS(maxProcs)

	if aa {
		if !runAA(o) {
			os.Exit(1)
		}
		return
	}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if out != "" {
		if err := writeJSON(out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !rep.Result.Correct {
		os.Exit(1)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// run executes one workload once and returns its report.
func run(o options) (*report, error) {
	base, ok := specByName(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 || o.scale <= 0 {
		return nil, fmt.Errorf("-seconds and -scale must be positive")
	}
	dirs := &workDirs{root: filepath.Join(o.workDir, fmt.Sprintf("run-%d", os.Getpid()))}
	defer dirs.cleanup()
	if o.trace {
		return runTraced(o, base, dirs)
	}
	return runEndToEnd(o, base, dirs)
}

func runEndToEnd(o options, base spec, dirs *workDirs) (*report, error) {
	s := base.sized(o.seconds, o.scale)
	rep := &report{
		Workload: s.name, Seed: o.seed, Seconds: o.seconds, Scale: o.scale,
		Workers: workers, Preload: s.preload, Ops: s.ops,
		Info: make(map[string]float64),
	}

	// Set up several times and report the median. The first two clusters
	// absorb the warm-up; all but the last are thrown away. A set-up that
	// takes milliseconds is repeated more often, or its median would be
	// mostly scheduler noise.
	var (
		in      *inputs
		st      *stack
		pre     *phase
		setupsS []float64
		total   time.Duration
	)
	for {
		var took time.Duration
		var err error
		in, st, pre, took, err = setUp(s, o.seed, workers, dirs, openStack)
		if err != nil {
			return nil, err
		}
		setupsS = append(setupsS, took.Seconds())
		total += took
		n := len(setupsS)
		if n >= minSetups && (total >= quickSetups || n >= maxSetups) {
			break
		}
		if n <= warmups {
			runPhase(st.store, in, in.timed, warmupEach)
		}
		if err := st.close(); err != nil {
			return nil, err
		}
	}
	defer func() { st.close() }() //nolint:errcheck // end of run
	rep.StreamHash = fmt.Sprintf("%016x", in.streamHash())

	timed := runPhase(st.store, in, in.timed, 0)
	probe := runPhase(st.store, in, in.probe, 0)
	check, err := audit(st, in, workers, s, false, rep)
	if err != nil {
		return nil, err
	}
	rep.tally(check, timed, probe)

	res := &rep.Result
	res.Metrics = make(map[string]metric)
	set := func(name string, v float64) {
		for _, d := range endToEnd {
			if d.Name == name {
				res.Metrics[name] = metric{v, d.Unit}
				return
			}
		}
		rep.Info[name] = v
	}
	set("ops_per_s", timed.opsPerSec())
	set("ops_per_s_mean", timed.meanOpsPerSec())
	set("setup_s", median(setupsS))
	set("setups", float64(len(setupsS)))
	set("timed_s", timed.elapsed.Seconds())
	// A class's median comes from the timed phase when the mix has the
	// class, else from the pass that exercised it outside the clock: the
	// preload for inserts, the post-phase probe for searches.
	fallback := [numKinds]*phase{opInsert: pre, opSearch: probe}
	for k := opKind(0); k < numKinds; k++ {
		src := timed
		if s.mix[k] == 0 {
			src = fallback[k]
		}
		if src == nil {
			continue
		}
		p50, p99, n := src.quantiles(ofKind(k))
		if n == 0 {
			continue
		}
		set(kindNames[k]+"_p50_us", p50)
		set(kindNames[k]+"_p99_us", p99)
		set(kindNames[k]+"_samples", float64(n))
		if k == opSearch {
			// The two selectivities apart: tails measure the probe and the
			// broadcast, surnames add result shipping and combine.
			p50, _, _ = src.quantiles(func(o op) bool { return o.kind == opSearch && isTail(o.arg) })
			set("search_tails_p50_us", p50)
			p50, _, _ = src.quantiles(func(o op) bool { return o.kind == opSearch && !isTail(o.arg) })
			set("search_surnames_p50_us", p50)
		}
	}
	fmt.Fprintf(o.log, "workload %s seed %d: preload %d, ops %d, workers %d, stream %s\n",
		rep.Workload, rep.Seed, rep.Preload, rep.Ops, rep.Workers, rep.StreamHash)
	printReport(o.log, rep, endToEnd)
	return rep, nil
}

// audit runs the result check and, on a durable workload, restarts the
// cluster over its data directory and runs the check again. A node that
// comes back fresh is a failure unless allowFresh: the short one-worker
// traced run can leave a node that was never written to.
func audit(st *stack, in *inputs, nWorkers int, s spec, allowFresh bool, rep *report) (verdict, error) {
	check := checkResults(st.store, in, nWorkers)
	if !s.durable {
		return check, nil
	}
	t0 := time.Now()
	outcomes, err := st.restart()
	if err != nil {
		return check, fmt.Errorf("restart: %w", err)
	}
	rep.Info["restart_s"] = time.Since(t0).Seconds()
	for node, oc := range outcomes {
		if oc != "recovered" && !(allowFresh && oc == "fresh") {
			check.fail(fmt.Errorf("node %d came back %q after the restart, want recovered", node, oc))
		}
	}
	check.add(checkResults(st.store, in, nWorkers))
	return check, nil
}

// tally fills in the result line's counts from the passes whose ops count
// and from the check.
func (rep *report) tally(check verdict, passes ...*phase) {
	res := &rep.Result
	res.Attempted, res.Failed = check.probes, check.failures
	first := check.first
	for i := len(passes) - 1; i >= 0; i-- {
		p := passes[i]
		res.Attempted += p.done + p.errs
		res.Failed += p.errs
		if p.firstErr != nil {
			first = p.firstErr
		}
	}
	res.Correct = res.Failed == 0
	if first != nil {
		rep.FirstError = first.Error()
	}
}

// printReport prints the declared metrics, then everything that is for
// information only.
func printReport(w io.Writer, rep *report, decls []metricDecl) {
	for _, d := range decls {
		fmt.Fprintf(w, "  %-34s %12.3f %s\n", d.Name, rep.Result.Metrics[d.Name].Value, d.Unit)
	}
	names := make([]string, 0, len(rep.Info))
	for n := range rep.Info {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %12.3f (information only)\n", n, rep.Info[n])
	}
	fmt.Fprintf(w, "  attempted %d, failed %d\n", rep.Result.Attempted, rep.Result.Failed)
	if rep.FirstError != "" {
		fmt.Fprintf(w, "  first failure: %s\n", rep.FirstError)
	}
}
