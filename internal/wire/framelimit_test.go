package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

// endlessReader serves prefix, then 'a' forever, counting the bytes
// handed out. A reader that buffers a frame before checking the cap
// never returns from it.
type endlessReader struct {
	prefix []byte
	served int64
}

func (e *endlessReader) Read(p []byte) (int, error) {
	n := copy(p, e.prefix[min(int(e.served), len(e.prefix)):])
	for i := n; i < len(p); i++ {
		p[i] = 'a'
	}
	e.served += int64(len(p))
	return len(p), nil
}

// oversizedHeader is a ping header whose length field claims one byte
// more payload than the cap.
func oversizedHeader() []byte {
	hdr := binFrame(Message{Type: MsgPing, Seq: 1})[:binHeaderLen]
	binary.LittleEndian.PutUint32(hdr[4:8], maxFrame+1)
	return hdr
}

// TestReadMessageBoundsOversizedFrame is the regression test for the
// frame-limit bug: a peer streaming an endless frame must not force
// unbounded buffering. The length field is checked before the payload
// is read, so the reader rejects the frame after one bufio fill; an
// endless stream that is not a frame at all is rejected on its first
// byte.
func TestReadMessageBoundsOversizedFrame(t *testing.T) {
	for _, tc := range []struct {
		name   string
		prefix []byte
		want   error
	}{
		{"oversized header", oversizedHeader(), errFrameTooLarge},
		{"not a frame", nil, nil},
	} {
		src := &endlessReader{prefix: tc.prefix}
		r := bufio.NewReader(src)
		_, err := ReadMessage(r)
		if err == nil || (tc.want != nil && !errors.Is(err, tc.want)) {
			t.Fatalf("%s: ReadMessage on an endless stream = %v, want %v", tc.name, err, tc.want)
		}
		if limit := int64(r.Size()); src.served > limit {
			t.Fatalf("%s: reader consumed %d bytes before rejecting, want <= %d", tc.name, src.served, limit)
		}
	}
}

// capFrame builds a complete ping frame whose payload is exactly
// payload bytes, padding the Err field; appendMessageBinary itself
// enforces no cap, so frames past it can be built for the reader.
func capFrame(t *testing.T, payload int) []byte {
	t.Helper()
	build := func(pad int) []byte {
		buf, err := appendMessageBinary(nil, &Message{Type: MsgPing, Seq: 1, Err: strings.Repeat("a", pad)})
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	overhead := len(build(payload)) - binHeaderLen - payload
	frame := build(payload - overhead)
	if got := len(frame) - binHeaderLen; got != payload {
		t.Fatalf("payload is %d bytes, want exactly %d", got, payload)
	}
	return frame
}

// TestReadMessageOversizedTerminatedFrame pins the cap for complete
// frames one byte past the limit, on both the read and the write side.
func TestReadMessageOversizedTerminatedFrame(t *testing.T) {
	frame := capFrame(t, maxFrame+1)
	_, err := ReadMessage(bufio.NewReader(bytes.NewReader(frame)))
	if !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("oversized frame = %v, want frame-limit error", err)
	}
	var buf bytes.Buffer
	m := Message{Type: MsgPing, Seq: 1, Err: strings.Repeat("a", maxFrame)}
	if err := WriteMessage(bufio.NewWriter(&buf), m); !errors.Is(err, errFrameTooLarge) || buf.Len() != 0 {
		t.Fatalf("writing an oversized frame = %v (%d bytes out), want frame-limit error", err, buf.Len())
	}
}

// TestReadMessageFrameAtLimit: a frame exactly at the cap still parses
// (the bound is on the frame, not a smaller internal buffer).
func TestReadMessageFrameAtLimit(t *testing.T) {
	frame := capFrame(t, maxFrame)
	m, err := ReadMessage(bufio.NewReader(bytes.NewReader(frame)))
	if err != nil {
		t.Fatalf("frame at the limit rejected: %v", err)
	}
	if !bytes.Equal(binFrame(m), frame) {
		t.Fatalf("frame at the limit mangled: type %v seq %d err len %d", m.Type, m.Seq, len(m.Err))
	}
}

// TestBatchMessageRoundTrip covers the batch frames through the codec,
// per-record errors included.
func TestBatchMessageRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	in := Message{
		Type: MsgPublishBatch,
		Seq:  9,
		Records: []Record{
			{Addr: "a:1", Vector: []float64{1, 2}, Number: 7, ExpiresUnixMilli: 99},
			{Addr: "b:2", Number: 8},
		},
	}
	if err := WriteMessage(w, in); err != nil {
		t.Fatal(err)
	}
	ack := Message{Type: MsgBatchAck, Seq: 9, Errs: []string{"", "store without addr"}}
	if err := WriteMessage(w, ack); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(&buf)
	out, err := ReadMessage(r)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != MsgPublishBatch || len(out.Records) != 2 || out.Records[1].Addr != "b:2" {
		t.Fatalf("batch round trip = %+v", out)
	}
	out, err = ReadMessage(r)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != MsgBatchAck || len(out.Errs) != 2 || out.Errs[1] == "" {
		t.Fatalf("ack round trip = %+v", out)
	}
}
