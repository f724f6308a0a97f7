package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The frame format lives in wire.go and the multiplexed client in pool.go.
//
// maxFrame bounds a frame to keep a malformed peer from exhausting
// memory.
const maxFrame = 64 << 20

// srvReadBuf / srvWriteBuf size the server's per-connection bufio
// layers. Typical frames are a few hundred bytes (a record + its index
// pieces) but batch frames run to tens of KiB; 64 KiB lets a whole
// batch coalesce into one syscall while staying cheap per connection.
const (
	srvReadBuf  = 64 << 10
	srvWriteBuf = 64 << 10
)

// Server serves the SDDS protocol for one node over TCP.
type Server struct {
	handler Handler
	lis     net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	met serverMetrics // set by Instrument before Serve; nil-safe
}

// NewServer wraps a handler; call Serve with a listener to start.
func NewServer(h Handler) *Server {
	return &Server{handler: h, conns: make(map[net.Conn]struct{})}
}

// Serve accepts connections until the listener is closed. Each
// connection must open with the v2 magic preamble and then carries
// multiplexed tagged frames.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed {
		// Close ran before we published the listener; it could not
		// close it, so we must, or Accept below would block forever.
		s.mu.Unlock()
		return lis.Close()
	}
	s.lis = lis
	s.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}()
	s.met.conns.Inc()
	r := bufio.NewReaderSize(conn, srvReadBuf)
	// The preamble is input from outside the program: anything but the
	// v2 magic is not a peer of ours, and the connection is dropped
	// before a single byte of it reaches the handler.
	var preamble [4]byte
	if _, err := io.ReadFull(r, preamble[:]); err != nil {
		return
	}
	if binary.BigEndian.Uint32(preamble[:]) != magicV2 {
		return
	}
	s.serveConnV2(conn, r)
}

// srvResp is one finished request on its way to the writer goroutine.
// reqBuf is the pooled buffer the request payload was read into; the
// writer releases it only after the response frame is written, because
// a handler's response may alias its request.
type srvResp struct {
	id      uint32
	status  uint8
	payload []byte
	reqBuf  *[]byte
}

// srvTask is one v2 request dispatched to a handler worker. inflight is
// the connection's own live-request counter; the writer consults it to
// decide whether yielding for more responses is worthwhile. deadline is
// the caller's propagated deadline (zero when none was sent).
type srvTask struct {
	s        *Server
	id       uint32
	op       uint8
	payload  []byte
	buf      *[]byte
	deadline time.Time
	respCh   chan srvResp
	wg       *sync.WaitGroup
	inflight *atomic.Int32
}

func (t srvTask) run() {
	defer t.wg.Done()
	ctx := context.Background()
	var cancel context.CancelFunc
	if !t.deadline.IsZero() {
		ctx, cancel = context.WithDeadline(ctx, t.deadline)
	}
	resp, herr := t.s.handler(ctx, t.op, t.payload)
	if cancel != nil {
		cancel()
	}
	// Decrement before the response is queued so the writer's snapshot
	// counts only requests that still owe it a response.
	t.s.met.inflight.Add(-1)
	t.inflight.Add(-1)
	if herr != nil {
		t.s.met.handlerErrors.Inc()
		// A request whose deadline ran out here or downstream keeps its
		// status on the way back out instead of flattening into a generic
		// remote error: the original client must see an expiry, not a
		// handler failure.
		if errors.Is(herr, context.DeadlineExceeded) {
			t.respCh <- srvResp{id: t.id, status: statusExpired, reqBuf: t.buf}
			return
		}
		t.respCh <- srvResp{id: t.id, status: statusErr, payload: []byte(herr.Error()), reqBuf: t.buf}
		return
	}
	t.respCh <- srvResp{id: t.id, status: statusOK, payload: resp, reqBuf: t.buf}
}

// srvIdle parks finished handler workers for reuse, exactly like the
// client-side fan-out pool: dispatch never queues behind a busy worker
// (a fresh goroutine is spawned when no parked worker is free, so a
// blocking handler — e.g. one forwarding to a peer node — cannot stall
// unrelated requests), while parked workers keep their grown stacks so
// a hot request stream stops paying per-request stack growth.
var srvIdle = make(chan chan srvTask, 64)

func srvGo(t srvTask) {
	select {
	case mb := <-srvIdle:
		mb <- t
	default:
		go srvWorker(t)
	}
}

func srvWorker(t srvTask) {
	mb := make(chan srvTask)
	for {
		t.run()
		t = srvTask{} // hold no buffers while parked
		select {
		case srvIdle <- mb:
		default:
			return
		}
		t = <-mb
	}
}

// serveConnV2 is the multiplexed loop: a reader dispatching each
// request frame to its own worker goroutine, and a single writer
// goroutine serializing response frames back (out of order relative to
// requests). Flushes coalesce: the writer only flushes when its queue
// is momentarily empty, so a burst of responses ships as one syscall.
func (s *Server) serveConnV2(conn net.Conn, r *bufio.Reader) {
	respCh := make(chan srvResp, 128)
	writerDone := make(chan struct{})
	var inflight atomic.Int32
	go func() {
		defer close(writerDone)
		w := bufio.NewWriterSize(conn, srvWriteBuf)
		var werr error
		for resp := range respCh {
			// When other requests on this connection still owe responses,
			// yield once so workers that are about to finish can queue
			// theirs too; the whole burst then leaves in one flush instead
			// of one syscall per response. A lone request skips the yield.
			if len(respCh) == 0 && inflight.Load() > 0 {
				runtime.Gosched()
			}
			for {
				if werr == nil {
					werr = writeFrameV2(w, resp.id, resp.status, resp.payload)
					if werr == nil {
						s.met.bytesOut.Add(frameWireBytesV2(resp.payload))
					} else {
						conn.Close() // unblock the read loop
					}
				}
				putPayloadBuf(resp.reqBuf)
				more := false
				select {
				case next, ok := <-respCh:
					if ok {
						resp = next
						more = true
					}
				default:
				}
				if !more {
					break
				}
			}
			if werr == nil {
				if werr = w.Flush(); werr != nil {
					conn.Close()
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for {
		id, tag, payload, buf, err := readFrameV2(r, true)
		if err != nil {
			break
		}
		s.met.frames.Inc()
		s.met.bytesIn.Add(frameWireBytesV2(payload))
		op := tag &^ tagDeadline
		var deadline time.Time
		if tag&tagDeadline != 0 {
			budget, rest, derr := splitBudget(payload)
			if derr != nil {
				// Protocol violation: the flag promised a deadline field the
				// frame doesn't hold. Drop the connection like any other
				// corrupt stream.
				putPayloadBuf(buf)
				break
			}
			payload = rest
			if budget <= 0 {
				// Already expired on arrival: answer statusExpired without
				// touching the handler — the client's own deadline fired (or
				// will momentarily), so any real work here is wasted CPU.
				s.met.expired.Inc()
				respCh <- srvResp{id: id, status: statusExpired, reqBuf: buf}
				continue
			}
			deadline = time.Now().Add(budget)
		}
		s.met.admits.Inc()
		s.met.inflight.Add(1)
		inflight.Add(1)
		wg.Add(1)
		srvGo(srvTask{s: s, id: id, op: op, payload: payload, buf: buf, deadline: deadline, respCh: respCh, wg: &wg, inflight: &inflight})
	}
	wg.Wait()
	close(respCh)
	<-writerDone
}

// Close stops accepting and closes all live connections.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	lis := s.lis
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if lis != nil {
		err = lis.Close()
	}
	s.wg.Wait()
	return err
}
