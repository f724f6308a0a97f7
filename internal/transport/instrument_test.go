package transport

import (
	"context"
	"errors"
	"net"
	"testing"

	"repro/internal/clock"
	"repro/internal/obs"
)

// TestDetectorMetrics probes a blacked-out node down and back up and
// asserts signal and transition counters against the snapshot.
func TestDetectorMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	mem := NewMemory()
	for i := 0; i < 3; i++ {
		mem.Register(NodeID(i), func(_ context.Context, op uint8, payload []byte) ([]byte, error) { return nil, nil })
	}
	faulty := NewFaulty(mem, 1, clock.Real{})
	det := NewDetector(faulty, []NodeID{0, 1, 2}, DetectorPolicy{DownAfter: 2}, clock.Real{})
	det.Instrument(reg)

	ctx := context.Background()
	faulty.Blackout(2)
	det.ProbeOnce(ctx) // node 2: suspect
	det.ProbeOnce(ctx) // node 2: down
	if g := reg.GaugeValue("detector_down_nodes"); g != 1 {
		t.Fatalf("down_nodes gauge = %d, want 1 while node 2 is down", g)
	}
	faulty.Restore(2)
	det.ProbeOnce(ctx) // node 2: back up

	if got := reg.CounterValue("detector_probes_total"); got != 9 {
		t.Errorf("probes_total = %d, want 9 (3 rounds x 3 members)", got)
	}
	var snapProbes uint64
	for _, nh := range det.Snapshot() {
		snapProbes += nh.ActiveProbes
	}
	if got := reg.CounterValue("detector_probes_total"); got != snapProbes {
		t.Errorf("probes_total = %d != snapshot sum %d", got, snapProbes)
	}
	for name, want := range map[string]uint64{
		"detector_transitions_suspect_total": 1,
		"detector_transitions_down_total":    1,
		"detector_transitions_up_total":      1,
	} {
		if got := reg.CounterValue(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if g := reg.GaugeValue("detector_down_nodes"); g != 0 {
		t.Errorf("down_nodes gauge = %d, want 0 after recovery", g)
	}

	// Passive signals route to the passive counter.
	det.ObserveSend(0, errors.New("boom"))
	if got := reg.CounterValue("detector_passive_signals_total"); got != 1 {
		t.Errorf("passive_signals_total = %d, want 1", got)
	}
}

// TestTCPByteAccounting runs a real server+client pair and asserts the
// two ends agree byte for byte, frame for frame.
func TestTCPByteAccounting(t *testing.T) {
	reg := obs.NewRegistry()
	srv := NewServer(func(_ context.Context, op uint8, payload []byte) ([]byte, error) {
		if op == 99 {
			return nil, errors.New("handler error")
		}
		return append([]byte{op}, payload...), nil
	})
	srv.Instrument(reg)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis) //nolint:errcheck
	defer srv.Close()

	cli := NewTCP(map[NodeID]string{0: lis.Addr().String()})
	cli.Instrument(reg)
	defer cli.Close()

	ctx := context.Background()
	const requests = 20
	var okBytesIn uint64
	for i := 0; i < requests; i++ {
		resp, err := cli.Send(ctx, 0, 1, make([]byte, i))
		if err != nil {
			t.Fatal(err)
		}
		okBytesIn += frameWireBytesV2(resp)
	}
	if _, err := cli.Send(ctx, 0, 99, nil); err == nil {
		t.Fatal("handler error did not surface")
	}
	okBytesIn += frameWireBytesV2([]byte("handler error"))

	// The client's inbound counter is exactly the sum of v2 response
	// frames (the 4-byte magic preamble is counted on neither side).
	if got := reg.CounterValue("transport_tcp_bytes_in_total"); got != okBytesIn {
		t.Errorf("client bytes in = %d, want %d", got, okBytesIn)
	}
	if got := reg.GaugeValue("transport_tcp_pool_conns"); got < 1 {
		t.Errorf("pool_conns gauge = %d, want >= 1 while the pool is warm", got)
	}
	if got := reg.GaugeValue("transport_tcp_inflight"); got != 0 {
		t.Errorf("tcp inflight gauge = %d, want 0 at rest", got)
	}
	if got := reg.GaugeValue("transport_srv_inflight"); got != 0 {
		t.Errorf("srv inflight gauge = %d, want 0 at rest", got)
	}

	frames := reg.CounterValue("transport_srv_frames_total")
	if frames != requests+1 {
		t.Errorf("srv frames = %d, want %d", frames, requests+1)
	}
	if got := reg.CounterValue("transport_srv_handler_errors_total"); got != 1 {
		t.Errorf("srv handler_errors = %d, want 1", got)
	}
	// Both directions agree end to end, headers included.
	if cOut, sIn := reg.CounterValue("transport_tcp_bytes_out_total"), reg.CounterValue("transport_srv_bytes_in_total"); cOut != sIn {
		t.Errorf("client bytes out %d != server bytes in %d", cOut, sIn)
	}
	if cIn, sOut := reg.CounterValue("transport_tcp_bytes_in_total"), reg.CounterValue("transport_srv_bytes_out_total"); cIn != sOut {
		t.Errorf("client bytes in %d != server bytes out %d", cIn, sOut)
	}
	dials := reg.CounterValue("transport_tcp_dials_total")
	reuses := reg.CounterValue("transport_tcp_conn_reuses_total")
	if dials < 1 {
		t.Error("no dials counted")
	}
	if dials+reuses != requests+1 {
		t.Errorf("dials %d + reuses %d != sends %d", dials, reuses, requests+1)
	}
	if got := reg.CounterValue("transport_srv_conns_total"); got != dials {
		t.Errorf("srv conns %d != client dials %d", got, dials)
	}
}
