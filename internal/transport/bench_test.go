package transport

import (
	"context"
	"encoding/binary"
	"net"
	"testing"
)

// benchServer starts a real Server with a fixed-cost handler and
// returns its address.
func benchServer(b *testing.B) string {
	b.Helper()
	srv := NewServer(func(_ context.Context, op uint8, p []byte) ([]byte, error) {
		return p, nil
	})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(lis) //nolint:errcheck
	b.Cleanup(func() { srv.Close() })
	return lis.Addr().String()
}

// BenchmarkTransport measures round trips of a 256-byte request through
// the multiplexed v2 client:
//
//	pooled     — one caller: it writes its own frame, and the
//	             connection's demux goroutine hands it the answer
//	pipelined  — many concurrent callers sharing the node's one
//	             connection, their frames coalescing into shared writes
//	broadcast3 — one Broadcast to three servers per iteration: the
//	             caller writes all three frames, then gathers the answers
func BenchmarkTransport(b *testing.B) {
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i)
	}

	b.Run("pooled", func(b *testing.B) {
		addr := benchServer(b)
		cli := NewTCP(map[NodeID]string{1: addr})
		defer cli.Close()
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cli.Send(ctx, 1, 1, payload); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("broadcast3", func(b *testing.B) {
		addrs := map[NodeID]string{}
		nodes := []NodeID{0, 1, 2}
		for _, n := range nodes {
			addrs[n] = benchServer(b)
		}
		cli := NewTCP(addrs)
		defer cli.Close()
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, r := range Broadcast(ctx, cli, nodes, 1, payload) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
	})

	b.Run("pipelined", func(b *testing.B) {
		addr := benchServer(b)
		cli := NewTCP(map[NodeID]string{1: addr})
		defer cli.Close()
		ctx := context.Background()
		b.ReportAllocs()
		// Many in-flight requests per CPU: the point of multiplexing is
		// overlapping round trips, not adding processors.
		b.SetParallelism(16)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := cli.Send(ctx, 1, 1, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// BenchmarkFrameV2 isolates the codec: encode+decode of one v2 frame
// through the pooled payload path, no sockets.
func BenchmarkFrameV2(b *testing.B) {
	payload := make([]byte, 256)
	var hdr [frameHdrV2]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		putFrameHdrV2(hdr[:], uint32(i), 1, len(payload))
		n := binary.BigEndian.Uint32(hdr[:4])
		if n < 5 || n > maxFrame {
			b.Fatal("bad length")
		}
		buf := getPayloadBuf(int(n) - 5)
		copy(*buf, payload)
		putPayloadBuf(buf)
	}
}
