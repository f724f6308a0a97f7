package esdds

import (
	"repro/internal/obs"
)

// WithObservability instruments every layer of the cluster into one
// metrics registry: transport bytes, connections and injected faults;
// per-node opcode latencies and search-path counters; WAL group sizes
// and sync-wait/fsync/checkpoint timings (with WithDataDir); and the
// self-healing loop's detector signals, transitions and repair phases
// (with WithSelfHealing).
//
// Retrieve the registry with Cluster.Metrics(); expose it with its
// Handler (a /metrics endpoint), WriteText, or PublishExpvar. All
// instruments are registered eagerly, so every metric name appears in
// the exposition (with a zero value) as soon as the cluster is built.
func WithObservability() ClusterOption {
	return func(c *clusterConfig) { c.observe = true }
}

// Metrics returns the cluster's metrics registry, or nil unless the
// cluster was built with WithObservability.
func (c *Cluster) Metrics() *obs.Registry { return c.met }
