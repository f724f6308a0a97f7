package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// TCP is the client-side transport: a node-address directory over one
// multiplexed v2 connection per node. Every in-flight request to a node
// shares its connection: each Send registers a per-request id and
// writes its own frame from its own goroutine (muxConn.write coalesces
// concurrent frames into one vectored write), and one demux goroutine
// per connection routes response frames (which may complete out of
// order) back to their waiters. A fan-out (Broadcast, ScatterList) runs
// on the caller's goroutine too: it writes every leg's frame, then
// gathers the answers. A connection therefore costs one goroutine, and
// a request none.
//
// Failure policy: a dead connection is evicted and the Sends it carried
// fail with a transport error — the transport never silently redials
// mid-request; redial happens on the next Send, when the caller re-runs
// the operation. A failure detector learns of the death through those
// failed Sends (Detector.Watch) or its next probe.
type TCP struct {
	mu     sync.Mutex
	addrs  map[NodeID]string
	slots  map[NodeID]*nodeSlot
	closed bool

	met tcpMetrics // set by Instrument before traffic; nil-safe
}

// nodeSlot is one node's connection plus its dial-coalescing state: at
// most one dial per node is in flight, and Sends that find no
// connection wait for it instead of dialing their own.
type nodeSlot struct {
	conn    *muxConn
	dialing *dialWait
}

type dialWait struct {
	done chan struct{}
	err  error
}

const (
	// dialTimeout bounds connection establishment, preamble included.
	dialTimeout = 5 * time.Second
	// writeTimeout bounds one vectored write of queued frames; a
	// connection that cannot drain its write within it is dead. It
	// exists so a hung peer cannot wedge Sends forever.
	writeTimeout = 15 * time.Second
)

// ErrClosed reports a Send on a closed transport.
var ErrClosed = errors.New("transport: closed")

// NewTCP creates a transport over the given node address directory.
func NewTCP(addrs map[NodeID]string) *TCP {
	cp := make(map[NodeID]string, len(addrs))
	for k, v := range addrs {
		cp[k] = v
	}
	return &TCP{addrs: cp, slots: make(map[NodeID]*nodeSlot)}
}

// AddNode registers (or updates) a node address.
func (t *TCP) AddNode(node NodeID, addr string) {
	t.mu.Lock()
	t.addrs[node] = addr
	t.mu.Unlock()
}

// getConn returns the node's live connection with a reservation (the
// in-flight gauge already incremented). With no live connection it
// dials one, coalescing concurrent dials per node — or, when dial is
// false, returns nil and leaves the dial to a Send.
func (t *TCP) getConn(ctx context.Context, node NodeID, dial bool) (*muxConn, error) {
	for {
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			return nil, ErrClosed
		}
		addr, ok := t.addrs[node]
		if !ok {
			t.mu.Unlock()
			return nil, fmt.Errorf("%w: %d", ErrUnknownNode, node)
		}
		slot := t.slots[node]
		if slot == nil {
			slot = &nodeSlot{}
			t.slots[node] = slot
		}
		if c := slot.conn; c != nil {
			t.mu.Unlock()
			t.met.reuses.Inc()
			t.met.inflight.Add(1)
			return c, nil
		}
		if !dial {
			t.mu.Unlock()
			return nil, nil
		}
		if slot.dialing != nil {
			// A dial for this node is already in flight: wait for it
			// rather than stampeding the dialer.
			dw := slot.dialing
			t.mu.Unlock()
			t.met.dialCoalesced.Inc()
			select {
			case <-dw.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if dw.err != nil {
				return nil, dw.err
			}
			continue // re-enter: the fresh conn is installed now
		}
		dw := &dialWait{done: make(chan struct{})}
		slot.dialing = dw
		t.mu.Unlock()

		c, err := t.dial(node, addr)
		t.mu.Lock()
		slot.dialing = nil
		if err == nil && !t.closed && c.isDead() {
			// The peer hung up before the connection was installed, so
			// removeConn had nothing to evict: installing it would pin a
			// dead connection as the node's only one.
			err = fmt.Errorf("transport: node %d: %w", node, c.deathErr())
		}
		dw.err = err
		if err == nil {
			if t.closed {
				t.mu.Unlock()
				close(dw.done)
				c.fail(ErrClosed)
				return nil, ErrClosed
			}
			slot.conn = c
			t.met.poolConns.Add(1)
			t.met.inflight.Add(1)
		}
		t.mu.Unlock()
		close(dw.done)
		if err != nil {
			return nil, err
		}
		return c, nil
	}
}

// dial establishes one v2 connection: TCP connect, magic preamble, then
// the demux goroutine takes over the socket's read side.
func (t *TCP) dial(node NodeID, addr string) (*muxConn, error) {
	nc, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dialing node %d: %w", node, err)
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true) //nolint:errcheck // best-effort
	}
	var magic [4]byte
	binary.BigEndian.PutUint32(magic[:], magicV2)
	nc.SetWriteDeadline(time.Now().Add(dialTimeout)) //nolint:errcheck
	if _, err := nc.Write(magic[:]); err != nil {
		nc.Close()
		return nil, fmt.Errorf("transport: v2 preamble to node %d: %w", node, err)
	}
	nc.SetWriteDeadline(time.Time{}) //nolint:errcheck
	t.met.dials.Inc()
	c := &muxConn{
		t:       t,
		node:    node,
		nc:      nc,
		waiters: make(map[uint32]chan wireResp),
	}
	go c.readLoop()
	return c, nil
}

// removeConn evicts a dead connection from its node and counts the
// death (unless the transport itself is closing).
func (t *TCP) removeConn(c *muxConn, err error) {
	t.mu.Lock()
	if slot := t.slots[c.node]; slot != nil && slot.conn == c {
		slot.conn = nil
		t.met.poolConns.Add(-1)
	}
	closed := t.closed
	t.mu.Unlock()
	if closed || errors.Is(err, ErrClosed) {
		return
	}
	t.met.connDeaths.Inc()
}

// open checks that a request may leave and reserves the node's
// connection; with dial false and no live connection it returns a nil
// conn (see getConn). The deadline is the context's, zero when it has
// none: the frame that carries it encodes the budget left at the
// moment it is written.
func (t *TCP) open(ctx context.Context, node NodeID, op uint8, dial bool) (*muxConn, time.Time, error) {
	if err := ctx.Err(); err != nil {
		return nil, time.Time{}, err
	}
	if op&tagDeadline != 0 {
		return nil, time.Time{}, fmt.Errorf("transport: op %d collides with the v2 deadline flag (ops must be < 0x80)", op)
	}
	// Propagate the caller's remaining budget on the wire so the server
	// (and every hop it forwards to) can drop work that is already doomed.
	deadline, hasDeadline := ctx.Deadline()
	if hasDeadline && time.Until(deadline) <= 0 {
		return nil, time.Time{}, context.DeadlineExceeded
	}
	c, err := t.getConn(ctx, node, dial)
	return c, deadline, err
}

// Send implements Transport: one multiplexed round trip. The request
// shares the node's connection with other in-flight Sends; the context
// governs only this request (cancelling it abandons the response — the
// connection stays healthy and a late response for the abandoned id is
// dropped by the demux loop).
func (t *TCP) Send(ctx context.Context, node NodeID, op uint8, payload []byte) ([]byte, error) {
	c, deadline, err := t.open(ctx, node, op, true)
	if err != nil {
		return nil, err
	}
	req := &wireReq{op: op, deadline: deadline, payload: payload}
	c.start(req)
	return c.finish(ctx, req)
}

// scatter runs a fan-out on the caller's goroutine: it writes every
// leg's frame, then gathers the answers, so a leg costs no goroutine. A
// leg whose node has no connection yet is sent by a goroutine of its
// own, which dials the way Send does, so first contact never holds
// back the other legs. It always runs the fan-out (see scatterer).
func (t *TCP) scatter(ctx context.Context, nodes []NodeID, op uint8, payloadAt func(int) []byte, out []Result) bool {
	legs := make([]struct {
		c   *muxConn
		req wireReq
	}, len(nodes))
	var dials sync.WaitGroup
	for i, n := range nodes {
		c, deadline, err := t.open(ctx, n, op, false)
		switch {
		case err != nil:
			out[i] = Result{Node: n, Err: err}
		case c == nil:
			payload := payloadAt(i)
			dials.Add(1)
			go func() {
				defer dials.Done()
				resp, err := t.Send(ctx, n, op, payload)
				out[i] = Result{Node: n, Payload: resp, Err: err}
			}()
		default:
			l := &legs[i]
			l.c, l.req = c, wireReq{op: op, deadline: deadline, payload: payloadAt(i)}
			c.start(&l.req)
		}
	}
	for i := range legs {
		if l := &legs[i]; l.c != nil {
			resp, err := l.c.finish(ctx, &l.req)
			out[i] = Result{Node: nodes[i], Payload: resp, Err: err}
		}
	}
	dials.Wait()
	return true
}

// Close implements Transport.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	var victims []*muxConn
	for _, slot := range t.slots {
		if slot.conn != nil {
			victims = append(victims, slot.conn)
			slot.conn = nil
		}
	}
	t.mu.Unlock()
	for _, c := range victims {
		c.fail(ErrClosed)
	}
	return nil
}

// --- multiplexed connection ---

// muxConn is one v2 connection. Its one goroutine is the demux (read)
// loop, routing response frames to per-id waiters. Requests are written
// by their senders under a write-combining lock: a sender that finds no
// one writing becomes the leader and writes every queued frame, its own
// first, in vectored writes of up to writeBatch frames until the queue
// is empty; a sender that finds a leader queues its frame and waits
// until the leader has written it.
type muxConn struct {
	t    *TCP
	node NodeID
	nc   net.Conn

	mu      sync.Mutex
	waiters map[uint32]chan wireResp
	nextID  uint32
	dead    bool
	err     error

	wmu     sync.Mutex
	queue   []*wireReq // frames waiting for the leader
	spare   []*wireReq // the queue's other buffer, swapped in by the leader
	writing bool       // a leader is writing
	werr    error      // set once a write failed; no frame is written after it

	// The leader's alone.
	wdl  time.Time // the write deadline armed on nc
	hdrs [writeBatch * hdrSlot]byte
	bufs net.Buffers
}

// wireReq is one request on its way through a muxConn. A non-zero
// deadline is encoded as the frame's deadline field.
type wireReq struct {
	id       uint32
	op       uint8
	deadline time.Time
	payload  []byte
	resp     chan wireResp // the demux loop delivers the answer here

	wrote chan struct{} // a follower's: closed once the leader wrote the frame or failed
	err   error         // why the frame was not written; set before wrote closes
}

type wireResp struct {
	status  uint8
	payload []byte
	err     error
}

// release drops one in-flight reservation.
func (c *muxConn) release() {
	c.t.met.inflight.Add(-1)
}

// start registers req's waiter and writes its frame (see write). The
// payload must stay untouched until finish returns.
func (c *muxConn) start(req *wireReq) {
	req.resp = make(chan wireResp, 1)
	c.mu.Lock()
	if c.dead {
		req.err = c.err
		c.mu.Unlock()
		return
	}
	c.nextID++
	req.id = c.nextID
	c.waiters[req.id] = req.resp
	c.mu.Unlock()
	c.write(req)
}

// finish waits until req's frame has left this process (or never will)
// and then for its answer, releases the reservation, and maps the
// answer's status to Send's results.
func (c *muxConn) finish(ctx context.Context, req *wireReq) ([]byte, error) {
	resp, err := c.await(ctx, req)
	c.release()
	if err != nil {
		return nil, err
	}
	switch resp.status {
	case statusOK:
		return resp.payload, nil
	case statusErr:
		return nil, &RemoteError{Node: c.node, Msg: string(resp.payload)}
	case statusExpired:
		return nil, &ExpiredError{Node: c.node}
	}
	// The node answered, so the request may have run: a RemoteError is
	// never retried blindly and proves the node alive, while the payload
	// is not handed to a decoder as data.
	return nil, &RemoteError{Node: c.node, Msg: fmt.Sprintf("unknown response status %d", resp.status)}
}

func (c *muxConn) await(ctx context.Context, req *wireReq) (wireResp, error) {
	// The caller may recycle the payload the moment Send returns, so a
	// follower waits for its leader even when ctx ends: the write is
	// bounded by writeTimeout, and a dead connection fails it at once.
	if req.wrote != nil {
		<-req.wrote
	}
	if req.err != nil {
		c.dropWaiter(req.id)
		return wireResp{}, fmt.Errorf("transport: sending to node %d: %w", c.node, req.err)
	}
	var resp wireResp
	if done := ctx.Done(); done == nil {
		resp = <-req.resp
	} else {
		select {
		case resp = <-req.resp:
		case <-done:
			c.dropWaiter(req.id)
			return wireResp{}, ctx.Err()
		}
	}
	if resp.err != nil {
		return wireResp{}, fmt.Errorf("transport: reading from node %d: %w", c.node, resp.err)
	}
	return resp, nil
}

func (c *muxConn) dropWaiter(id uint32) {
	c.mu.Lock()
	delete(c.waiters, id)
	c.mu.Unlock()
}

func (c *muxConn) isDead() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead
}

func (c *muxConn) deathErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	return errors.New("connection closed")
}

// writeBatch bounds how many queued frames one vectored write carries.
const writeBatch = 64

// hdrSlot is one write-arena slot: a v2 header plus room for the
// optional deadline field.
const hdrSlot = frameHdrV2 + deadlineBytes

// write sends req's frame. With no leader on c, the caller leads: it
// takes the queue (its own frame first), writes it and closes the wrote
// channel of each follower in it, and goes on until the queue is empty.
// With a leader at work, req joins the queue and gets a wrote channel.
// After a failed write every queued frame fails with it, and so does
// every later one.
func (c *muxConn) write(req *wireReq) {
	c.wmu.Lock()
	if c.werr != nil {
		req.err = c.werr
		c.wmu.Unlock()
		return
	}
	c.queue = append(c.queue, req)
	if c.writing {
		req.wrote = make(chan struct{})
		c.wmu.Unlock()
		return
	}
	c.writing = true
	var err error
	for len(c.queue) > 0 && err == nil {
		batch := c.queue
		c.queue = c.spare[:0]
		c.wmu.Unlock()
		err = c.writeFrames(batch)
		c.wmu.Lock()
		c.wake(batch, err)
		c.spare = batch[:0]
	}
	if err != nil {
		err = fmt.Errorf("writing frame: %w", err)
		c.werr = err
		c.wake(c.queue, err)
		c.queue = c.queue[:0]
	}
	c.writing = false
	c.wmu.Unlock()
	if err != nil {
		c.fail(err)
	}
}

// wake ends the wait of every follower among reqs, handing it the
// write's error, and drops the queue's references to them. Callers hold
// c.wmu.
func (c *muxConn) wake(reqs []*wireReq, err error) {
	for i, r := range reqs {
		if err != nil {
			r.err = err
		}
		if r.wrote != nil {
			close(r.wrote)
		}
		reqs[i] = nil
	}
}

// writeFrames writes reqs in vectored writes of up to writeBatch frames:
// headers (and deadline fields) from the leader's arena, payload slices
// used in place (zero copy). The write deadline is re-armed only when
// less than half of writeTimeout is left on it, so a stuck write still
// fails within writeTimeout while a busy connection stops resetting the
// poller's timer on every write. Only the leader calls it.
func (c *muxConn) writeFrames(reqs []*wireReq) error {
	now := time.Now()
	if c.wdl.Sub(now) < writeTimeout/2 {
		c.wdl = now.Add(writeTimeout)
		if err := c.nc.SetWriteDeadline(c.wdl); err != nil {
			return err
		}
	}
	for len(reqs) > 0 {
		n := min(len(reqs), writeBatch)
		bufs := c.bufs[:0]
		var wire uint64
		for i, req := range reqs[:n] {
			slot := c.hdrs[i*hdrSlot : i*hdrSlot+hdrSlot]
			if req.deadline.IsZero() {
				h := slot[:frameHdrV2]
				putFrameHdrV2(h, req.id, req.op, len(req.payload))
				bufs = append(bufs, h)
			} else {
				// Encode the budget left right now; a frame that queued
				// behind a slow batch ships the time its caller truly has.
				h := slot[:frameHdrV2+deadlineBytes]
				putFrameHdrV2(h[:frameHdrV2], req.id, req.op|tagDeadline, deadlineBytes+len(req.payload))
				putBudget(h[frameHdrV2:], time.Until(req.deadline))
				bufs = append(bufs, h)
				wire += deadlineBytes
			}
			if len(req.payload) > 0 {
				bufs = append(bufs, req.payload)
			}
			wire += frameWireBytesV2(req.payload)
		}
		c.bufs = bufs
		// WriteTo consumes the slice it is called on (and nils what it
		// wrote), so hand it a copy of the header and keep c.bufs whole.
		if _, err := bufs.WriteTo(c.nc); err != nil {
			return err
		}
		c.t.met.bytesOut.Add(wire)
		reqs = reqs[n:]
	}
	return nil
}

// readLoop is the demux goroutine: it reads response frames and routes
// each to the waiter registered under its id. Responses for ids whose
// waiter gave up (context cancelled) are dropped. A read error kills
// the connection: every current waiter fails and the transport evicts
// it.
func (c *muxConn) readLoop() {
	r := newReaderBuf(c.nc)
	for {
		id, status, payload, _, err := readFrameV2(r, false)
		if err != nil {
			c.fail(err)
			return
		}
		c.t.met.bytesIn.Add(frameWireBytesV2(payload))
		c.mu.Lock()
		ch := c.waiters[id]
		delete(c.waiters, id)
		c.mu.Unlock()
		if ch != nil {
			ch <- wireResp{status: status, payload: payload}
		}
	}
}

// fail tears the connection down exactly once: marks it dead, closes
// the socket (ending the demux loop and any write in progress), fails
// every waiter, and evicts it from its node.
func (c *muxConn) fail(err error) {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return
	}
	c.dead = true
	c.err = err
	waiters := c.waiters
	c.waiters = make(map[uint32]chan wireResp)
	c.mu.Unlock()
	c.nc.Close()
	for _, ch := range waiters {
		ch <- wireResp{err: err}
	}
	c.t.removeConn(c, err)
}

// newReaderBuf sizes the demux read buffer for the typical response mix
// (small single-key and search frames with the occasional large batch or
// image frame, which bufio reads through without growing).
func newReaderBuf(nc net.Conn) *bufio.Reader {
	return bufio.NewReaderSize(nc, 64<<10)
}
