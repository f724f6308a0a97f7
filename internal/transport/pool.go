package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TCP is the client-side transport: a node-address directory over one
// multiplexed v2 connection per node. Every in-flight request to a node
// shares its connection — each Send registers a per-request id, a write
// loop coalesces pending frames into one vectored write, and a demux
// goroutine per connection routes response frames (which may complete
// out of order) back to their waiters.
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

// Nodes implements Transport.
func (t *TCP) Nodes() []NodeID {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]NodeID, 0, len(t.addrs))
	for id := range t.addrs {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// getConn returns the node's live connection with a reservation (its
// in-flight count already incremented) or dials one, coalescing
// concurrent dials per node.
func (t *TCP) getConn(ctx context.Context, node NodeID) (*muxConn, error) {
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
			c.inflight.Add(1)
			t.mu.Unlock()
			t.met.reuses.Inc()
			t.met.inflight.Add(1)
			return c, nil
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
			c.inflight.Add(1)
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
// the demux and write loops take over the socket.
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
		writeCh: make(chan *wireReq, 128),
		waiters: make(map[uint32]chan wireResp),
		closed:  make(chan struct{}),
	}
	go c.writeLoop()
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

// Send implements Transport: one multiplexed round trip. The request
// shares the node's connection with other in-flight Sends; the context
// governs only this request (cancelling it abandons the response — the
// connection stays healthy and a late response for the abandoned id is
// dropped by the demux loop).
func (t *TCP) Send(ctx context.Context, node NodeID, op uint8, payload []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if op&tagDeadline != 0 {
		return nil, fmt.Errorf("transport: op %d collides with the v2 deadline flag (ops must be < 0x80)", op)
	}
	// Propagate the caller's remaining budget on the wire so the server
	// (and every hop it forwards to) can drop work that is already doomed.
	// The absolute deadline rides to the write loop, which encodes the
	// budget left at the moment the frame is actually serialized — a frame
	// that sat in the write queue carries its true remaining time, not a
	// stale snapshot.
	deadline, hasDeadline := ctx.Deadline()
	if hasDeadline && time.Until(deadline) <= 0 {
		return nil, context.DeadlineExceeded
	}
	if !hasDeadline {
		deadline = time.Time{}
	}
	c, err := t.getConn(ctx, node)
	if err != nil {
		return nil, err
	}
	resp, err := c.roundTrip(ctx, op, deadline, payload)
	c.release()
	if err != nil {
		return nil, err
	}
	switch resp.status {
	case statusOK:
		return resp.payload, nil
	case statusErr:
		return nil, &RemoteError{Node: node, Msg: string(resp.payload)}
	case statusExpired:
		return nil, &ExpiredError{Node: node}
	}
	// The node answered, so the request may have run: a RemoteError is
	// never retried blindly and proves the node alive, while the payload
	// is not handed to a decoder as data.
	return nil, &RemoteError{Node: node, Msg: fmt.Sprintf("unknown response status %d", resp.status)}
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

// muxConn is one v2 connection: a write loop coalescing queued request
// frames into vectored writes, and a demux (read) loop routing response
// frames to per-id waiters.
type muxConn struct {
	t    *TCP
	node NodeID
	nc   net.Conn

	writeCh  chan *wireReq
	inflight atomic.Int32

	mu      sync.Mutex
	waiters map[uint32]chan wireResp
	nextID  uint32
	dead    bool
	err     error

	closed chan struct{} // closed by fail(); wakes both loops
}

type wireReq struct {
	id       uint32
	op       uint8
	deadline time.Time // non-zero: frame carries the deadline field
	payload  []byte
	wrote    chan struct{} // closed once the frame left (or will never leave) this process
}

type wireResp struct {
	status  uint8
	payload []byte
	err     error
}

// release drops one in-flight reservation.
func (c *muxConn) release() {
	c.inflight.Add(-1)
	c.t.met.inflight.Add(-1)
}

// roundTrip runs one tagged request over the shared connection. A
// non-zero deadline is encoded as the frame's deadline field.
func (c *muxConn) roundTrip(ctx context.Context, op uint8, deadline time.Time, payload []byte) (wireResp, error) {
	ch := make(chan wireResp, 1)
	c.mu.Lock()
	if c.dead {
		err := c.err
		c.mu.Unlock()
		return wireResp{}, fmt.Errorf("transport: node %d: %w", c.node, err)
	}
	c.nextID++
	id := c.nextID
	c.waiters[id] = ch
	c.mu.Unlock()

	req := &wireReq{id: id, op: op, deadline: deadline, payload: payload, wrote: make(chan struct{})}
	select {
	case c.writeCh <- req:
	case <-c.closed:
		c.dropWaiter(id)
		return wireResp{}, fmt.Errorf("transport: sending to node %d: %w", c.node, c.deathErr())
	case <-ctx.Done():
		// Nothing was enqueued, so nothing holds the payload: safe to
		// abandon immediately even on a backed-up write queue.
		c.dropWaiter(id)
		return wireResp{}, ctx.Err()
	}
	// Wait until the frame has hit the socket (or the conn died): the
	// caller may recycle the payload buffer the moment Send returns, so
	// returning while a write loop still holds it would corrupt frames.
	// A live conn drains writes promptly; a wedged one trips
	// writeTimeout and dies, closing c.closed.
	select {
	case <-req.wrote:
	case <-c.closed:
		// The write loop exited without draining this request; its frame
		// was never (and will never be) written.
		c.dropWaiter(id)
		return wireResp{}, fmt.Errorf("transport: sending to node %d: %w", c.node, c.deathErr())
	}
	select {
	case resp := <-ch:
		if resp.err != nil {
			return wireResp{}, fmt.Errorf("transport: reading from node %d: %w", c.node, resp.err)
		}
		return resp, nil
	case <-ctx.Done():
		c.dropWaiter(id)
		return wireResp{}, ctx.Err()
	}
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

// writeLoop drains queued requests, coalescing everything pending into
// one net.Buffers vectored write — headers (and deadline fields) from a
// reused arena, payload slices used in place (zero copy).
func (c *muxConn) writeLoop() {
	var (
		hdrs    [writeBatch * hdrSlot]byte
		pending = make([]*wireReq, 0, writeBatch)
		bufs    = make(net.Buffers, 0, 2*writeBatch)
	)
	for {
		select {
		case <-c.closed:
			return
		case req := <-c.writeCh:
			pending = append(pending[:0], req)
		}
		// With more requests in flight than just this one, yield once
		// before committing to a syscall: senders that are already
		// runnable get to enqueue, so a burst of concurrent requests
		// coalesces into one vectored write instead of N. A lone caller
		// skips the yield and keeps its latency.
		if c.inflight.Load() > 1 {
			runtime.Gosched()
		}
	gather:
		for len(pending) < writeBatch {
			select {
			case req := <-c.writeCh:
				pending = append(pending, req)
			default:
				break gather
			}
		}
		bufs = bufs[:0]
		var wire uint64
		for i, req := range pending {
			slot := hdrs[i*hdrSlot : i*hdrSlot+hdrSlot]
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
		c.nc.SetWriteDeadline(time.Now().Add(writeTimeout)) //nolint:errcheck
		_, err := bufs.WriteTo(c.nc)
		for _, req := range pending {
			close(req.wrote)
		}
		if err != nil {
			c.fail(fmt.Errorf("writing frame: %w", err))
			return
		}
		c.t.met.bytesOut.Add(wire)
	}
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
// the socket (waking both loops), fails every waiter, and evicts it
// from its node.
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
	close(c.closed)
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
