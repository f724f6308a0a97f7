// Package transport carries the SDDS protocol between clients,
// coordinator, and storage nodes. It deliberately separates transport
// from protocol: messages are (op, payload) byte frames; the sdds layer
// defines op codes and payload encodings.
//
// Two implementations are provided: an in-memory transport that wires
// nodes as goroutine handlers (used by tests and examples that simulate
// a multicomputer in one process) and a TCP transport over real sockets
// (used by the cmd/esdds-node daemon). Both expose the same interface,
// so every distributed code path in the repository runs identically over
// loopback TCP and in memory.
package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// NodeID identifies one storage node.
type NodeID int

// Handler processes one request on a node and returns the response
// payload. Handlers must be safe for concurrent use. The context
// carries the caller's remaining deadline budget when one was
// propagated (in memory: the caller's own context; over TCP: a
// deadline reconstructed from the wire-v2 deadline field), so a
// handler that forwards — an LH* hop, a scatter leg — hands its peers
// the time the original caller actually has left.
type Handler func(ctx context.Context, op uint8, payload []byte) ([]byte, error)

// Transport sends requests to nodes and awaits their responses.
type Transport interface {
	// Send delivers (op, payload) to the node and returns its response.
	// Remote handler errors come back as *RemoteError.
	Send(ctx context.Context, node NodeID, op uint8, payload []byte) ([]byte, error)
	// Close releases connections.
	Close() error
}

// RemoteError is an error returned by a node's handler, carried across
// the transport — or an answer whose status the client cannot read.
// Either way the node answered, and the request may have run.
type RemoteError struct {
	Node NodeID
	Msg  string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("node %d: %s", e.Node, e.Msg)
}

// ExpiredError is the client-side form of a statusExpired wire
// response: the request's propagated deadline had already passed when
// the server read it (or ran out inside the handler), so the server
// answered without doing the work. It matches errors.Is(err,
// context.DeadlineExceeded) — from the caller's point of view the op
// timed out; the wire status only tells us the server noticed first.
type ExpiredError struct {
	Node NodeID
}

func (e *ExpiredError) Error() string {
	return fmt.Sprintf("node %d: request deadline expired before dispatch", e.Node)
}

// Is makes errors.Is(err, context.DeadlineExceeded) match.
func (e *ExpiredError) Is(target error) bool { return target == context.DeadlineExceeded }

// answeredExpired reports whether err is a node's statusExpired answer.
// Unlike a caller-side context expiry it proves the node alive — it
// read our frame and replied — so the Detector keeps it out of the
// failure path: a saturated node whose queue outlives the callers'
// deadlines must never read as a dying one.
func answeredExpired(err error) bool {
	var ee *ExpiredError
	return errors.As(err, &ee)
}

// ErrUnknownNode reports a send to an unregistered node.
var ErrUnknownNode = errors.New("transport: unknown node")

// Memory is the in-process transport: a registry of handlers.
type Memory struct {
	mu       sync.RWMutex
	handlers map[NodeID]Handler
	closed   bool
}

// NewMemory creates an empty in-memory transport.
func NewMemory() *Memory {
	return &Memory{handlers: make(map[NodeID]Handler)}
}

// Register wires a node's handler. Re-registering replaces the handler.
func (m *Memory) Register(node NodeID, h Handler) {
	m.mu.Lock()
	m.handlers[node] = h
	m.mu.Unlock()
}

// Unregister removes a node — simulating a site failure. Subsequent
// sends to it fail with ErrUnknownNode.
func (m *Memory) Unregister(node NodeID) {
	m.mu.Lock()
	delete(m.handlers, node)
	m.mu.Unlock()
}

// Send implements Transport.
func (m *Memory) Send(ctx context.Context, node NodeID, op uint8, payload []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m.mu.RLock()
	h, ok := m.handlers[node]
	closed := m.closed
	m.mu.RUnlock()
	if closed {
		return nil, errors.New("transport: closed")
	}
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNode, node)
	}
	resp, err := h(ctx, op, payload)
	if err != nil {
		return nil, &RemoteError{Node: node, Msg: err.Error()}
	}
	return resp, nil
}

// Close implements Transport.
func (m *Memory) Close() error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	return nil
}

// Result is one node's reply in a scatter-gather exchange.
type Result struct {
	Node    NodeID
	Payload []byte
	Err     error
}

// InlineSender marks transports whose Send completes synchronously on
// the calling goroutine with no I/O to overlap — the in-memory
// transport, where a send IS the handler call. Fan-out helpers run such
// sends serially when the context cannot be cancelled: with no latency
// to hide, worker handoff is pure scheduling overhead, and with an
// uncancellable context a serial pass blocks in exactly the cases a
// parallel one would (fan-out waits for every result either way).
type InlineSender interface {
	SendsInline() bool
}

// SendsInline marks the in-memory transport for serial fan-out: a send
// is a direct handler call on the caller's goroutine.
func (m *Memory) SendsInline() bool { return true }

// CtxSender marks transports whose Send returns promptly once the
// context ends, even mid-request — the multiplexed TCP transport, whose
// round-trip selects on ctx.Done while the demux goroutine owns the
// socket. Fan-out helpers call such transports directly instead of
// paying a watchdog goroutine per send; transports that can block past
// cancellation (an in-memory handler that never returns, a middleware
// that swallows the context) must not carry the marker.
type CtxSender interface {
	SendsWithContext() bool
}

// SendsWithContext marks the multiplexed TCP transport: roundTrip abandons
// the waiter and returns ctx.Err() the moment the context ends.
func (t *TCP) SendsWithContext() bool { return true }

// sendAbortable runs one Send but returns as soon as the context ends,
// carrying ctx.Err(), even if the underlying transport ignores
// cancellation (a hung node, a blocked in-memory handler). The
// abandoned send finishes (and is discarded) on its own goroutine.
func sendAbortable(ctx context.Context, tr Transport, node NodeID, op uint8, payload []byte) ([]byte, error) {
	if ctx.Done() == nil {
		// A context that can never be cancelled (context.Background and
		// friends) needs no abort goroutine or channel.
		return tr.Send(ctx, node, op, payload)
	}
	if cs, ok := tr.(CtxSender); ok && cs.SendsWithContext() {
		// The transport aborts on its own when the context ends; a
		// watchdog goroutine would only duplicate that select.
		return tr.Send(ctx, node, op, payload)
	}
	type outcome struct {
		payload []byte
		err     error
	}
	ch := make(chan outcome, 1)
	go func() {
		resp, err := tr.Send(ctx, node, op, payload)
		ch <- outcome{resp, err}
	}()
	select {
	case o := <-ch:
		return o.payload, o.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// fanTask is one unit of scatter-gather work run by the fan-out worker
// pool.
type fanTask struct {
	ctx     context.Context
	tr      Transport
	node    NodeID
	op      uint8
	payload []byte
	out     *Result
	wg      *sync.WaitGroup
}

func (t fanTask) run() {
	resp, err := sendAbortable(t.ctx, t.tr, t.node, t.op, t.payload)
	*t.out = Result{Node: t.node, Payload: resp, Err: err}
	t.wg.Done()
}

// fanIdle holds the mailboxes of parked fan-out workers. Dispatch
// reuses a parked worker when one is free and spawns a fresh goroutine
// otherwise — a task is never queued behind a busy worker, so a slow or
// blocked send cannot stall an unrelated fan-out. Parked workers keep
// their grown stacks, which matters on the in-memory transport: the
// node handler runs on the dispatching goroutine, and a cold goroutine
// pays stack-growth through the whole handler on every send.
var fanIdle = make(chan chan fanTask, 64)

func fanGo(t fanTask) {
	select {
	case mb := <-fanIdle:
		mb <- t
	default:
		go fanWorker(t)
	}
}

func fanWorker(t fanTask) {
	mb := make(chan fanTask)
	for {
		t.run()
		t = fanTask{} // hold no payload references while parked
		select {
		case fanIdle <- mb:
		default:
			return // enough workers parked already; retire this one
		}
		t = <-mb
	}
}

// fanOut dispatches one send per node and waits for all results;
// payloadAt indexes into the caller's node order. nodes[0] runs inline
// on the caller's goroutine (which would otherwise just block), so a
// single-node fan-out costs no goroutine at all.
func fanOut(ctx context.Context, tr Transport, nodes []NodeID, op uint8, payloadAt func(int) []byte, out []Result) {
	if len(nodes) == 0 {
		return
	}
	if is, ok := tr.(InlineSender); ok && is.SendsInline() && ctx.Done() == nil {
		for i, n := range nodes {
			resp, err := tr.Send(ctx, n, op, payloadAt(i))
			out[i] = Result{Node: n, Payload: resp, Err: err}
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(nodes) - 1)
	for i := 1; i < len(nodes); i++ {
		fanGo(fanTask{ctx: ctx, tr: tr, node: nodes[i], op: op, payload: payloadAt(i), out: &out[i], wg: &wg})
	}
	resp, err := sendAbortable(ctx, tr, nodes[0], op, payloadAt(0))
	out[0] = Result{Node: nodes[0], Payload: resp, Err: err}
	wg.Wait()
}

// Broadcast sends the same request to every listed node in parallel and
// collects all results, ordered by node ID. This is the primitive behind
// the paper's parallel searches: the query series go to all index sites
// at once and the coordinator gathers their hits. When the context ends,
// pending sends abort promptly and their Results carry ctx.Err().
func Broadcast(ctx context.Context, tr Transport, nodes []NodeID, op uint8, payload []byte) []Result {
	out := make([]Result, len(nodes))
	fanOut(ctx, tr, nodes, op, func(int) []byte { return payload }, out)
	return out
}

// ScatterList sends a distinct request to each node in parallel, from
// parallel node and payload slices; results come back in input order,
// results[i] answering nodes[i]. Nodes must be distinct. When the
// context ends, pending sends abort promptly and their Results carry
// ctx.Err().
func ScatterList(ctx context.Context, tr Transport, op uint8, nodes []NodeID, payloads [][]byte) []Result {
	out := make([]Result, len(nodes))
	fanOut(ctx, tr, nodes, op, func(i int) []byte { return payloads[i] }, out)
	return out
}
