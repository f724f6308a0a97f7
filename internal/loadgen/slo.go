package loadgen

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Gate is one declarative SLO: "metric op bound". Examples:
//
//	search.p99 < 250ms      — absolute latency bound (duration literal)
//	error_rate == 0         — no failed ops
//	loss == 0               — the post-soak audit found every record
//	search.p99 <= prev*1.5  — regression bound against the previous
//	                          BENCH entry for the same profile
//	throughput >= offered*0.55 — bound relative to the run's own
//	                          offered rate, so a capacity floor keeps
//	                          meaning when -ops/-rate are overridden
//
// Latency metrics are nanoseconds; bounds may be bare numbers or Go
// duration literals. A "prev"-relative gate is skipped (with a note,
// not a failure) when no baseline exists yet.
type Gate struct {
	Expr   string
	Metric string
	Op     string
	// exactly one of these is set
	bound         float64
	prevFactor    float64
	isPrev        bool
	offeredFactor float64
	isOffered     bool
}

// GateOutcome is one evaluated gate, recorded in the report.
type GateOutcome struct {
	Expr    string  `json:"expr"`
	Pass    bool    `json:"pass"`
	Skipped bool    `json:"skipped,omitempty"`
	Value   float64 `json:"value,omitempty"`
	Bound   float64 `json:"bound,omitempty"`
	Detail  string  `json:"detail"`
}

var gateOps = map[string]func(v, b float64) bool{
	"<":  func(v, b float64) bool { return v < b },
	"<=": func(v, b float64) bool { return v <= b },
	">":  func(v, b float64) bool { return v > b },
	">=": func(v, b float64) bool { return v >= b },
	"==": func(v, b float64) bool { return v == b },
	"!=": func(v, b float64) bool { return v != b },
}

// ParseGate parses one "metric op bound" expression.
func ParseGate(expr string) (Gate, error) {
	fields := strings.Fields(expr)
	if len(fields) != 3 {
		return Gate{}, fmt.Errorf("loadgen: gate %q: want \"metric op bound\"", expr)
	}
	g := Gate{Expr: strings.Join(fields, " "), Metric: fields[0], Op: fields[1]}
	if _, ok := gateOps[g.Op]; !ok {
		return Gate{}, fmt.Errorf("loadgen: gate %q: unknown operator %q", expr, g.Op)
	}
	bound := fields[2]
	switch {
	case bound == "prev":
		g.isPrev, g.prevFactor = true, 1
	case strings.HasPrefix(bound, "prev*"):
		f, err := strconv.ParseFloat(bound[len("prev*"):], 64)
		if err != nil || f <= 0 {
			return Gate{}, fmt.Errorf("loadgen: gate %q: bad prev factor %q", expr, bound)
		}
		g.isPrev, g.prevFactor = true, f
	case bound == "offered":
		g.isOffered, g.offeredFactor = true, 1
	case strings.HasPrefix(bound, "offered*"):
		f, err := strconv.ParseFloat(bound[len("offered*"):], 64)
		if err != nil || f <= 0 {
			return Gate{}, fmt.Errorf("loadgen: gate %q: bad offered factor %q", expr, bound)
		}
		g.isOffered, g.offeredFactor = true, f
	default:
		if v, err := strconv.ParseFloat(bound, 64); err == nil {
			g.bound = v
		} else if d, derr := time.ParseDuration(bound); derr == nil {
			g.bound = float64(d)
		} else {
			return Gate{}, fmt.Errorf("loadgen: gate %q: bad bound %q (number or duration)", expr, bound)
		}
	}
	return g, nil
}

// ParseGates parses a list of gate expressions, reporting every bad one.
func ParseGates(exprs []string) ([]Gate, error) {
	gates := make([]Gate, 0, len(exprs))
	var errs []string
	for _, e := range exprs {
		e = strings.TrimSpace(e)
		if e == "" || strings.HasPrefix(e, "#") {
			continue
		}
		g, err := ParseGate(e)
		if err != nil {
			errs = append(errs, err.Error())
			continue
		}
		gates = append(gates, g)
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("%s", strings.Join(errs, "; "))
	}
	return gates, nil
}

// metricValue resolves a gate metric against a report. Latency metrics
// are nanoseconds. Audit metrics exist only when an audit ran: a gate
// on a missing metric fails rather than passing vacuously.
func metricValue(r *Report, name string) (float64, bool) {
	if kind, stat, ok := strings.Cut(name, "."); ok {
		st, have := r.Ops[kind]
		if !have {
			return 0, false
		}
		switch stat {
		case "p50":
			return float64(st.P50Ns), true
		case "p90":
			return float64(st.P90Ns), true
		case "p99":
			return float64(st.P99Ns), true
		case "mean":
			return st.MeanNs, true
		case "max":
			return float64(st.MaxNs), true
		case "count":
			return float64(st.Count), true
		case "errors":
			return float64(st.Errors), true
		case "error_rate":
			return st.ErrorRate, true
		case "rejected":
			return float64(st.Rejected), true
		}
		return 0, false
	}
	switch name {
	case "ops":
		return float64(r.Totals.Ops), true
	case "errors":
		return float64(r.Totals.Errors), true
	case "error_rate":
		return r.Totals.ErrorRate, true
	case "shed":
		return float64(r.Totals.Shed), true
	case "rejected":
		return float64(r.Totals.Rejected), true
	case "throughput":
		return r.Totals.Throughput, true
	case "goodput":
		return r.Totals.Goodput, true
	case "elapsed_sec":
		return r.Totals.ElapsedSec, true
	case "splits":
		return float64(r.Cluster.RecordSplits + r.Cluster.IndexSplits), true
	case "record_splits":
		return float64(r.Cluster.RecordSplits), true
	case "index_splits":
		return float64(r.Cluster.IndexSplits), true
	case "iams":
		return float64(r.Cluster.IAMs), true
	case "record_buckets":
		return float64(r.Cluster.RecordBuckets), true
	case "index_buckets":
		return float64(r.Cluster.IndexBuckets), true
	case "nodes_used":
		return float64(r.Cluster.NodesUsed), true
	case "repairs":
		return float64(r.Cluster.Repairs), true
	case "alarms":
		return float64(r.Cluster.Alarms), true
	case "migrations_started":
		return float64(r.Cluster.MigStarted), true
	case "migrations_committed":
		return float64(r.Cluster.MigCommitted), true
	case "migrations_aborted":
		return float64(r.Cluster.MigAborted), true
	case "migrations_resumed":
		return float64(r.Cluster.MigResumed), true
	case "migrations_in_flight":
		return float64(r.Cluster.MigInFlight), true
	}
	if r.Audit != nil {
		switch name {
		case "loss":
			return float64(r.Audit.Loss()), true
		case "missing":
			return float64(r.Audit.Missing), true
		case "corrupt":
			return float64(r.Audit.Corrupt), true
		case "ghosts":
			return float64(r.Audit.Ghosts), true
		case "search_misses":
			return float64(r.Audit.SearchMisses), true
		case "audit_errors":
			return float64(r.Audit.Errors), true
		}
	}
	return 0, false
}

// latencyMetric reports whether a metric is a nanosecond latency series
// (rendered as a duration in gate details).
func latencyMetric(name string) bool {
	_, stat, ok := strings.Cut(name, ".")
	if !ok {
		return false
	}
	switch stat {
	case "p50", "p90", "p99", "mean", "max":
		return true
	}
	return false
}

func gateValue(metric string, v float64) string {
	if latencyMetric(metric) {
		return time.Duration(v).Round(time.Microsecond).String()
	}
	return fmtMetric(metric, v)
}

// EvalGates evaluates every gate against cur, with prev (the previous
// BENCH entry for the profile, possibly nil) as the regression
// baseline. It returns the per-gate outcomes and whether all
// non-skipped gates passed.
func EvalGates(gates []Gate, cur, prev *Report) ([]GateOutcome, bool) {
	outcomes := make([]GateOutcome, 0, len(gates))
	pass := true
	for _, g := range gates {
		o := GateOutcome{Expr: g.Expr}
		v, ok := metricValue(cur, g.Metric)
		if !ok {
			o.Detail = fmt.Sprintf("FAIL: metric %s not present in report", g.Metric)
			pass = false
			outcomes = append(outcomes, o)
			continue
		}
		bound := g.bound
		if g.isPrev {
			if prev == nil {
				o.Pass, o.Skipped = true, true
				o.Detail = "SKIP: no previous baseline for profile"
				outcomes = append(outcomes, o)
				continue
			}
			pv, pok := metricValue(prev, g.Metric)
			if !pok {
				o.Pass, o.Skipped = true, true
				o.Detail = fmt.Sprintf("SKIP: metric %s absent from baseline", g.Metric)
				outcomes = append(outcomes, o)
				continue
			}
			bound = pv * g.prevFactor
		}
		if g.isOffered {
			if cur.Config.Rate <= 0 {
				o.Pass, o.Skipped = true, true
				o.Detail = "SKIP: report carries no offered rate"
				outcomes = append(outcomes, o)
				continue
			}
			bound = cur.Config.Rate * g.offeredFactor
		}
		o.Value, o.Bound = v, bound
		o.Pass = gateOps[g.Op](v, bound)
		verdict := "PASS"
		if !o.Pass {
			verdict = "FAIL"
			pass = false
		}
		o.Detail = fmt.Sprintf("%s: %s = %s %s %s", verdict, g.Metric,
			gateValue(g.Metric, v), g.Op, gateValue(g.Metric, bound))
		outcomes = append(outcomes, o)
	}
	return outcomes, pass
}
