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

// srvResp is one finished request on its way out. reqBuf is the pooled
// buffer the request payload was read into; the writer releases it
// only after the response frame is written, because a handler's
// response may alias its request.
type srvResp struct {
	id      uint32
	status  uint8
	payload []byte
	reqBuf  *[]byte
}

// srvTask is one v2 request dispatched to a handler worker. deadline is
// the caller's propagated deadline (zero when none was sent); expired
// marks a request whose budget had run out on arrival, which the worker
// answers without calling the handler.
type srvTask struct {
	sc       *srvConn
	id       uint32
	op       uint8
	payload  []byte
	buf      *[]byte
	deadline time.Time
	expired  bool
	wg       *sync.WaitGroup
}

func (t srvTask) run() {
	defer t.wg.Done()
	r := t.answer()
	t.sc.unanswered.Add(-1)
	t.sc.reply(r)
}

func (t srvTask) answer() srvResp {
	if t.expired {
		// The client's own deadline fired (or will momentarily), so any
		// real work here is wasted CPU.
		return srvResp{id: t.id, status: statusExpired, reqBuf: t.buf}
	}
	s := t.sc.s
	ctx := context.Background()
	var cancel context.CancelFunc
	if !t.deadline.IsZero() {
		ctx, cancel = context.WithDeadline(ctx, t.deadline)
	}
	resp, herr := s.handler(ctx, t.op, t.payload)
	if cancel != nil {
		cancel()
	}
	s.met.inflight.Add(-1)
	if herr != nil {
		s.met.handlerErrors.Inc()
		// A request whose deadline ran out here or downstream keeps its
		// status on the way back out instead of flattening into a generic
		// remote error: the original client must see an expiry, not a
		// handler failure.
		if errors.Is(herr, context.DeadlineExceeded) {
			return srvResp{id: t.id, status: statusExpired, reqBuf: t.buf}
		}
		return srvResp{id: t.id, status: statusErr, payload: []byte(herr.Error()), reqBuf: t.buf}
	}
	return srvResp{id: t.id, status: statusOK, payload: resp, reqBuf: t.buf}
}

// srvIdle parks finished handler workers for reuse: dispatch never
// queues behind a busy worker (a fresh goroutine is spawned when no
// parked worker is free, so a blocking handler — e.g. one forwarding to
// a peer node — cannot stall unrelated requests), while parked workers
// keep their grown stacks so a hot request stream stops paying
// per-request stack growth.
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

// srvConn is the reply side of one v2 connection. The worker that
// finishes a request writes its own reply under a write-combining lock:
// one that finds no one writing becomes the leader, writes every queued
// reply into w and flushes, and goes on until the queue is empty; one
// that finds a leader queues its reply and returns at once.
type srvConn struct {
	s    *Server
	conn net.Conn

	// unanswered counts the requests read but not yet answered by their
	// worker. A new leader that sees others still unanswered yields
	// once, so workers about to finish queue their replies and the burst
	// leaves in one flush — replies that finish together, as a WAL group
	// commit's do, then cost one syscall instead of one each.
	unanswered atomic.Int32

	mu      sync.Mutex
	queue   []srvResp // replies waiting for the leader
	spare   []srvResp // the queue's other buffer, swapped in by the leader
	writing bool      // a leader is writing

	// The leader's alone.
	w    *bufio.Writer
	werr error // the first write error; replies after it are dropped
}

// reply sends r, as the leader or by queueing it for the leader.
func (sc *srvConn) reply(r srvResp) {
	sc.mu.Lock()
	sc.queue = append(sc.queue, r)
	if sc.writing {
		sc.mu.Unlock()
		return
	}
	sc.writing = true
	if sc.unanswered.Load() > 0 {
		sc.mu.Unlock()
		runtime.Gosched()
		sc.mu.Lock()
	}
	for len(sc.queue) > 0 {
		batch := sc.queue
		sc.queue = sc.spare[:0]
		sc.mu.Unlock()
		sc.write(batch)
		clear(batch)
		sc.mu.Lock()
		sc.spare = batch[:0]
	}
	sc.writing = false
	sc.mu.Unlock()
}

// write writes one batch of replies and flushes it as one syscall (or a
// few, past srvWriteBuf). After a write error the socket is closed,
// which ends the read loop, and later replies are dropped. Every
// request buffer goes back to the pool either way.
func (sc *srvConn) write(batch []srvResp) {
	for _, r := range batch {
		if sc.werr == nil {
			sc.werr = writeFrameV2(sc.w, r.id, r.status, r.payload)
			if sc.werr == nil {
				sc.s.met.bytesOut.Add(frameWireBytesV2(r.payload))
			} else {
				sc.conn.Close()
			}
		}
		putPayloadBuf(r.reqBuf)
	}
	if sc.werr == nil {
		if sc.werr = sc.w.Flush(); sc.werr != nil {
			sc.conn.Close()
		}
	}
}

// serveConnV2 is the multiplexed loop: the reader dispatches each
// request frame to a worker of its own, and the worker writes the reply
// (out of order relative to requests) through srvConn. The reader never
// writes to the socket: a request that expired on arrival goes to a
// worker like any other. Replies coalesce: a worker finishing while
// another writes leaves its reply to that one's next flush, and a new
// leader first yields once while other requests are unanswered.
func (s *Server) serveConnV2(conn net.Conn, r *bufio.Reader) {
	sc := &srvConn{s: s, conn: conn, w: bufio.NewWriterSize(conn, srvWriteBuf)}
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
		expired := false
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
				s.met.expired.Inc()
				expired = true
			} else {
				deadline = time.Now().Add(budget)
			}
		}
		if !expired {
			s.met.admits.Inc()
			s.met.inflight.Add(1)
		}
		wg.Add(1)
		sc.unanswered.Add(1)
		srvGo(srvTask{sc: sc, id: id, op: op, payload: payload, buf: buf, deadline: deadline, expired: expired, wg: &wg})
	}
	// A worker leaves wg only once its reply is written or handed to a
	// leader that has not yet left wg itself, so every reply is out (or
	// dropped) when Wait returns.
	wg.Wait()
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
