package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// --- wire protocol v2 (multiplexed tagged frames) ---

func FuzzReadFrameV2(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 4, 0, 0, 0, 1})                         // length 4 — below v2 minimum of 5
	f.Add([]byte{0, 0, 0, 5, 0, 0, 0, 1, 7})                      // minimal valid frame
	f.Add([]byte{0, 0, 0, 9, 0, 0, 0, 2, 1, 'a'})                 // truncated payload
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 1, 1})          // oversized length
	f.Add([]byte{0xE5, 0xDD, 0x55, 0x02, 0, 0, 0, 1, 1})          // magic where a length belongs
	f.Add([]byte{0, 0, 0, 6, 0xff, 0xff, 0xff, 0xff, 0xee, 0x00}) // corrupt id+tag bytes still decode
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic; may only error or return a frame consistent
		// with the input, for both the pooled and unpooled payload paths.
		for _, pooled := range []bool{false, true} {
			id, tag, payload, buf, err := readFrameV2(bufio.NewReader(bytes.NewReader(data)), pooled)
			if err != nil {
				continue
			}
			if len(data) < frameHdrV2 {
				t.Fatalf("frame decoded from %d bytes", len(data))
			}
			n := binary.BigEndian.Uint32(data)
			if n < 5 || n > maxFrame {
				t.Fatalf("out-of-range length %d accepted", n)
			}
			if want := binary.BigEndian.Uint32(data[4:8]); id != want {
				t.Fatalf("id = %d, want %d", id, want)
			}
			if tag != data[8] {
				t.Fatalf("tag = %d, want %d", tag, data[8])
			}
			if len(payload) != int(n)-5 {
				t.Fatalf("payload length %d, want %d", len(payload), n-5)
			}
			if !bytes.Equal(payload, data[frameHdrV2:frameHdrV2+len(payload)]) {
				t.Fatal("payload bytes differ from input")
			}
			putPayloadBuf(buf)
		}
	})
}

func FuzzFrameV2RoundTrip(f *testing.F) {
	f.Add(uint32(0), uint8(0), []byte{})
	f.Add(uint32(1), uint8(7), []byte("payload"))
	f.Add(uint32(0xffffffff), uint8(255), make([]byte, 1024))
	f.Fuzz(func(t *testing.T, id uint32, tag uint8, payload []byte) {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := writeFrameV2(w, id, tag, payload); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil { // writeFrameV2 deliberately does not flush
			t.Fatal(err)
		}
		gotID, gotTag, gotPayload, _, err := readFrameV2(bufio.NewReader(&buf), false)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if gotID != id || gotTag != tag || !bytes.Equal(gotPayload, payload) {
			t.Fatalf("round trip: (%d, %d, %q) -> (%d, %d, %q)", id, tag, payload, gotID, gotTag, gotPayload)
		}
	})
}

// TestReadFrameV2Truncated covers mid-stream loss: every strict prefix
// of a valid two-frame v2 stream must fail (on the first or second
// frame) without a hang or panic — and frames before the cut decode.
func TestReadFrameV2Truncated(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeFrameV2(w, 1, 7, []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	if err := writeFrameV2(w, 2, 8, []byte("second")); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	first := frameHdrV2 + len("hello world")
	for n := 0; n < len(full); n++ {
		r := bufio.NewReader(bytes.NewReader(full[:n]))
		id, tag, payload, _, err := readFrameV2(r, false)
		if n < first {
			if err == nil {
				t.Fatalf("truncated first frame of %d/%d bytes accepted", n, first)
			}
			if n > frameHdrV2 && err != io.ErrUnexpectedEOF {
				t.Fatalf("prefix %d: err = %v, want unexpected EOF", n, err)
			}
			continue
		}
		// First frame is whole; it must decode, and the cut must land on
		// the second.
		if err != nil || id != 1 || tag != 7 || string(payload) != "hello world" {
			t.Fatalf("prefix %d: first frame (%d, %d, %q, %v)", n, id, tag, payload, err)
		}
		if _, _, _, _, err := readFrameV2(r, false); err == nil {
			t.Fatalf("truncated second frame at %d/%d bytes accepted", n, len(full))
		}
	}
}

func TestReadFrameV2Oversized(t *testing.T) {
	var hdr [frameHdrV2]byte
	binary.BigEndian.PutUint32(hdr[:4], maxFrame+1)
	hdr[8] = 1
	_, _, _, _, err := readFrameV2(bufio.NewReader(bytes.NewReader(hdr[:])), false)
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("oversized v2 frame: err = %v", err)
	}
	// Lengths 0..4 cannot hold the id+tag — all invalid.
	for n := uint32(0); n < 5; n++ {
		binary.BigEndian.PutUint32(hdr[:4], n)
		_, _, _, _, err := readFrameV2(bufio.NewReader(bytes.NewReader(hdr[:])), false)
		if err == nil {
			t.Fatalf("v2 frame with length %d accepted", n)
		}
	}
}

// FuzzSplitBudget covers the deadline-field parser with arbitrary
// payload bytes: short payloads must error, everything else must yield
// a non-negative budget (garbage that would decode negative clamps to
// "already expired") and pass the op payload through untouched.
func FuzzSplitBudget(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, deadlineBytes-1)) // one byte short of the field
	f.Add(binary.BigEndian.AppendUint64(nil, 0))
	f.Add(binary.BigEndian.AppendUint64(nil, 1<<63)) // decodes negative
	f.Add(append(binary.BigEndian.AppendUint64(nil, uint64(time.Second)), 'o', 'p'))
	f.Fuzz(func(t *testing.T, data []byte) {
		budget, rest, err := splitBudget(data)
		if len(data) < deadlineBytes {
			if err == nil {
				t.Fatalf("%d-byte payload accepted as a deadline field", len(data))
			}
			return
		}
		if err != nil {
			t.Fatalf("splitBudget(%d bytes) = %v", len(data), err)
		}
		if budget < 0 {
			t.Fatalf("negative budget %v escaped the clamp", budget)
		}
		if u := binary.BigEndian.Uint64(data); int64(u) >= 0 && budget != time.Duration(u) {
			t.Fatalf("budget = %v, want %v", budget, time.Duration(u))
		}
		if !bytes.Equal(rest, data[deadlineBytes:]) {
			t.Fatal("op payload mangled while stripping the deadline field")
		}
	})
}

// FuzzDeadlineFrameRoundTrip: a deadline-flagged request frame survives
// write → read → splitBudget for arbitrary ids, ops, budgets, and
// bodies, exactly as the server's v2 loop consumes it.
func FuzzDeadlineFrameRoundTrip(f *testing.F) {
	f.Add(uint32(1), uint8(3), uint64(0), []byte("p"))
	f.Add(uint32(7), uint8(31), uint64(time.Second), []byte{})
	f.Add(uint32(0xffffffff), uint8(0x7f), uint64(1)<<63, []byte("neg"))
	f.Fuzz(func(t *testing.T, id uint32, op uint8, budget uint64, body []byte) {
		op &^= tagDeadline // ops live in the low 7 bits
		payload := make([]byte, deadlineBytes+len(body))
		binary.BigEndian.PutUint64(payload, budget)
		copy(payload[deadlineBytes:], body)
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := writeFrameV2(w, id, op|tagDeadline, payload); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		gotID, tag, gotPayload, _, err := readFrameV2(bufio.NewReader(&buf), false)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if gotID != id || tag&tagDeadline == 0 || tag&^tagDeadline != op {
			t.Fatalf("round trip: (%d, %#x) -> (%d, %#x)", id, op|tagDeadline, gotID, tag)
		}
		gotBudget, rest, err := splitBudget(gotPayload)
		if err != nil {
			t.Fatalf("splitBudget after round trip: %v", err)
		}
		if int64(budget) >= 0 {
			if gotBudget != time.Duration(budget) {
				t.Fatalf("budget = %v, want %v", gotBudget, time.Duration(budget))
			}
		} else if gotBudget != 0 {
			t.Fatalf("negative wire budget decoded as %v, want clamp to 0", gotBudget)
		}
		if !bytes.Equal(rest, body) {
			t.Fatalf("body = %q, want %q", rest, body)
		}
	})
}

// TestServerRejectsCorruptV2Stream interleaves a valid request with
// garbage on one server connection: the server answers what it parsed
// and drops the connection at the corruption point instead of
// misinterpreting bytes.
func TestServerRejectsCorruptV2Stream(t *testing.T) {
	addr, stop := startTCPNode(t, func(_ context.Context, op uint8, p []byte) ([]byte, error) {
		return append([]byte(nil), p...), nil
	})
	defer stop()

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	var magic [4]byte
	binary.BigEndian.PutUint32(magic[:], magicV2)
	if _, err := nc.Write(magic[:]); err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(nc)
	if err := writeFrameV2(w, 42, 1, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	// A frame whose length field exceeds maxFrame: corruption.
	var bad [frameHdrV2]byte
	binary.BigEndian.PutUint32(bad[:4], maxFrame+1)
	w.Write(bad[:]) //nolint:errcheck
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(nc)
	id, status, payload, _, err := readFrameV2(r, false)
	if err != nil || id != 42 || status != statusOK || string(payload) != "ok" {
		t.Fatalf("valid frame before corruption not served: (%d, %d, %q, %v)", id, status, payload, err)
	}
	// After the corrupt header the server must close the connection.
	nc.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	if _, _, _, _, err := readFrameV2(r, false); err == nil {
		t.Fatal("server kept serving after corrupt frame")
	}
}
