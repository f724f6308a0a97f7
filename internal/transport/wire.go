package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"time"
)

// Wire protocol v2 — the multiplexed frame format (see DESIGN.md §12).
//
// A client announces itself by sending a 4-byte magic preamble
// immediately after dialing; the server closes any connection that
// opens with anything else.
//
// Every v2 frame, both directions:
//
//	uint32 length (of everything after this field, big-endian)
//	uint32 id     (request tag; the response echoes it)
//	uint8  tag    (request: op / response: status)
//	bytes  payload
//
// The id lets many requests share one connection with out-of-order
// completion: the client registers a waiter per id and a demux
// goroutine routes each response frame to its waiter.
const magicV2 = 0xE5DD5502

// frameHdrV2 is the fixed part of a v2 frame: length + id + tag.
const frameHdrV2 = 9

// tagDeadline is the request-tag flag bit marking a propagated
// deadline: when set, the payload begins with deadlineBytes of
// big-endian remaining budget in nanoseconds (relative, so no clock
// sync between peers is assumed), followed by the op payload proper.
// Op codes therefore live in the low 7 bits — the sdds protocol uses
// ops < 32, and TCP.Send rejects ops that collide with the flag.
// Response tags (statuses) never set it.
const tagDeadline = 0x80

// deadlineBytes is the wire size of the optional deadline field.
const deadlineBytes = 8

// Response statuses. OK carries the handler's response and Err its
// error text. Expired: the propagated deadline had already passed on
// arrival (or ran out in the handler), so the server answered without
// burning CPU on doomed work; the payload is empty, and the client
// reads it as a timeout from a live node, not as node failure. Any
// other status is a peer speaking a protocol this client does not, and
// TCP.Send reports it as an error naming the node and the status.
// Retired statuses stay reserved, like retired op codes — never reuse.
const (
	statusOK      = 0
	statusErr     = 1
	_             = 2 // retired: "overloaded" (server admission control)
	statusExpired = 3
)

// putBudget encodes a deadline budget for the wire. Budgets are
// clamped at zero: a caller whose deadline already passed should not
// reach the encoder (Send checks ctx.Err first), but a torn race
// between that check and encoding must not wrap negative into a huge
// unsigned budget.
func putBudget(b []byte, budget time.Duration) {
	if budget < 0 {
		budget = 0
	}
	binary.BigEndian.PutUint64(b[:deadlineBytes], uint64(budget))
}

// splitBudget decodes and strips the deadline field from a request
// payload whose tag carried tagDeadline. Garbage high-bit budgets
// (which would decode as negative durations) come back as 0 — i.e.
// already expired — rather than poisoning time arithmetic; a payload
// too short to hold the field is a protocol violation.
func splitBudget(payload []byte) (budget time.Duration, rest []byte, err error) {
	if len(payload) < deadlineBytes {
		return 0, nil, fmt.Errorf("transport: v2 deadline frame payload %d bytes, want >= %d", len(payload), deadlineBytes)
	}
	u := binary.BigEndian.Uint64(payload[:deadlineBytes])
	budget = time.Duration(u)
	if budget < 0 {
		budget = 0
	}
	return budget, payload[deadlineBytes:], nil
}

// putFrameHdrV2 encodes a v2 frame header into h.
func putFrameHdrV2(h []byte, id uint32, tag uint8, payloadLen int) {
	binary.BigEndian.PutUint32(h[:4], uint32(5+payloadLen))
	binary.BigEndian.PutUint32(h[4:8], id)
	h[8] = tag
}

// writeFrameV2 appends one v2 frame to w WITHOUT flushing, so a batch
// of frames coalesces into one syscall; the caller flushes when its
// queue drains.
func writeFrameV2(w *bufio.Writer, id uint32, tag uint8, payload []byte) error {
	var hdr [frameHdrV2]byte
	putFrameHdrV2(hdr[:], id, tag, len(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// payloadPool recycles v2 frame payload buffers. The server reads each
// request into a pooled buffer and releases it after the response is
// written — safe because sdds decoders copy every byte they keep and
// the WAL journals synchronously. Buffers above 1 MiB are not pooled so
// one huge frame cannot pin a large allocation.
var payloadPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

func getPayloadBuf(n int) *[]byte {
	p := payloadPool.Get().(*[]byte)
	if cap(*p) < n {
		*p = make([]byte, n)
	}
	*p = (*p)[:n]
	return p
}

func putPayloadBuf(p *[]byte) {
	if p == nil || cap(*p) > 1<<20 {
		return
	}
	payloadPool.Put(p)
}

// readFrameV2 reads one v2 frame. When pooled is true the payload is
// backed by a pooled buffer the caller MUST release with putPayloadBuf
// once the payload (and anything aliasing it) is dead; otherwise the
// payload is freshly allocated and owned by the caller.
func readFrameV2(r *bufio.Reader, pooled bool) (id uint32, tag uint8, payload []byte, buf *[]byte, err error) {
	var hdr [frameHdrV2]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n < 5 || n > maxFrame {
		return 0, 0, nil, nil, fmt.Errorf("transport: v2 frame length %d out of range", n)
	}
	id = binary.BigEndian.Uint32(hdr[4:8])
	tag = hdr[8]
	body := int(n) - 5
	if pooled {
		buf = getPayloadBuf(body)
		payload = *buf
	} else {
		payload = make([]byte, body)
	}
	if _, err := io.ReadFull(r, payload); err != nil {
		putPayloadBuf(buf)
		return 0, 0, nil, nil, err
	}
	return id, tag, payload, buf, nil
}

// frameWireBytesV2 is the on-wire size of a v2 frame carrying payload.
func frameWireBytesV2(payload []byte) uint64 {
	return uint64(frameHdrV2 + len(payload))
}
