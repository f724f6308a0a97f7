package transport

import "repro/internal/obs"

// This file wires the transport layer into the obs registry. Each
// middleware gets an Instrument method that populates a struct of
// instrument pointers; un-instrumented components leave the pointers
// nil, and obs instruments are nil-receiver no-ops, so the hot paths
// need no branches. Instrument must be called before the component
// carries traffic (it writes plain fields the hot paths read without
// synchronization).

// faultyMetrics mirrors FaultStats into the registry; each counter
// equals the same field summed over Faulty.Stats().
type faultyMetrics struct {
	sends      *obs.Counter
	dropped    *obs.Counter
	failed     *obs.Counter
	delayed    *obs.Counter
	duplicated *obs.Counter
	blacked    *obs.Counter
}

// Instrument publishes the fault injector's counters into reg.
func (f *Faulty) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	f.met = faultyMetrics{
		sends:      reg.Counter("transport_fault_sends_total"),
		dropped:    reg.Counter("transport_fault_drops_total"),
		failed:     reg.Counter("transport_fault_fails_total"),
		delayed:    reg.Counter("transport_fault_delays_total"),
		duplicated: reg.Counter("transport_fault_dups_total"),
		blacked:    reg.Counter("transport_fault_blackouts_total"),
	}
}

// detectorMetrics counts signals and state transitions. Invariant:
// signals seen == probes + passive, and every transition lands in
// exactly one of the three per-state counters.
type detectorMetrics struct {
	probes    *obs.Counter
	passive   *obs.Counter
	toUp      *obs.Counter
	toSuspect *obs.Counter
	toDown    *obs.Counter
	downNodes *obs.Gauge
}

// Instrument publishes the detector's counters into reg.
func (d *Detector) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	d.met = detectorMetrics{
		probes:    reg.Counter("detector_probes_total"),
		passive:   reg.Counter("detector_passive_signals_total"),
		toUp:      reg.Counter("detector_transitions_up_total"),
		toSuspect: reg.Counter("detector_transitions_suspect_total"),
		toDown:    reg.Counter("detector_transitions_down_total"),
		downNodes: reg.Gauge("detector_down_nodes"),
	}
}

// tcpMetrics counts the client side of the TCP transport: dials,
// connection reuse, frame bytes on the wire (header included; the
// 4-byte v2 magic preamble is counted on neither side so client and
// server byte counters stay symmetric), and connection lifecycle.
// Invariants:
//
//	dials_total + conn_reuses_total == Sends that acquired a connection
//	pool_conns == nodes with an open connection (gauge; one per node)
//	inflight   == requests between acquire and release (gauge)
type tcpMetrics struct {
	dials         *obs.Counter
	reuses        *obs.Counter
	bytesOut      *obs.Counter
	bytesIn       *obs.Counter
	poolConns     *obs.Gauge
	inflight      *obs.Gauge
	connDeaths    *obs.Counter
	dialCoalesced *obs.Counter
}

// Instrument publishes the TCP client's counters into reg.
func (t *TCP) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	t.met = tcpMetrics{
		dials:         reg.Counter("transport_tcp_dials_total"),
		reuses:        reg.Counter("transport_tcp_conn_reuses_total"),
		bytesOut:      reg.Counter("transport_tcp_bytes_out_total"),
		bytesIn:       reg.Counter("transport_tcp_bytes_in_total"),
		poolConns:     reg.Gauge("transport_tcp_pool_conns"),
		inflight:      reg.Gauge("transport_tcp_inflight"),
		connDeaths:    reg.Counter("transport_tcp_conn_deaths_total"),
		dialCoalesced: reg.Counter("transport_tcp_dial_coalesced_total"),
	}
}

// serverMetrics counts the node side of the TCP protocol. inflight is
// the number of v2 request frames currently inside handler workers.
// Every well-formed request frame lands in exactly one of admits /
// expired, so the invariant suite asserts
//
//	admits_total + expired_total == frames_total
//
// (corrupt frames kill the connection and dispatch nowhere).
type serverMetrics struct {
	conns         *obs.Counter
	frames        *obs.Counter
	handlerErrors *obs.Counter
	bytesIn       *obs.Counter
	bytesOut      *obs.Counter
	inflight      *obs.Gauge
	admits        *obs.Counter // requests dispatched to a handler
	expired       *obs.Counter // dropped: propagated deadline already passed
}

// Instrument publishes the server's counters into reg.
func (s *Server) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.met = serverMetrics{
		conns:         reg.Counter("transport_srv_conns_total"),
		frames:        reg.Counter("transport_srv_frames_total"),
		handlerErrors: reg.Counter("transport_srv_handler_errors_total"),
		bytesIn:       reg.Counter("transport_srv_bytes_in_total"),
		bytesOut:      reg.Counter("transport_srv_bytes_out_total"),
		inflight:      reg.Gauge("transport_srv_inflight"),
		admits:        reg.Counter("transport_srv_admits_total"),
		expired:       reg.Counter("transport_srv_expired_total"),
	}
}
