package wire

import (
	"bufio"
	"bytes"
	"strings"
	"testing"
)

// binFrame encodes m as one binary frame for seed corpora.
func binFrame(m Message) []byte {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := WriteMessage(bw, m); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// sameMessage compares the semantic payload of two messages: everything
// the dispatcher and multiplexer act on. Stats snapshots are compared by
// family count only (they ride as embedded JSON bytes).
func sameMessage(t *testing.T, what string, a, b Message) {
	t.Helper()
	if a.Type != b.Type || a.Seq != b.Seq || a.Number != b.Number ||
		a.Max != b.Max || a.Addr != b.Addr || a.Err != b.Err ||
		len(a.Records) != len(b.Records) || len(a.Errs) != len(b.Errs) {
		t.Fatalf("%s mangled message:\n in: %+v\nout: %+v", what, a, b)
	}
	for i := range a.Errs {
		if a.Errs[i] != b.Errs[i] {
			t.Fatalf("%s mangled err %d: %q vs %q", what, i, a.Errs[i], b.Errs[i])
		}
	}
	if (a.Trace == nil) != (b.Trace == nil) ||
		(a.Trace != nil && *a.Trace != *b.Trace) {
		t.Fatalf("%s mangled trace context:\n in: %+v\nout: %+v", what, a.Trace, b.Trace)
	}
	if (a.Record == nil) != (b.Record == nil) {
		t.Fatalf("%s mangled record presence", what)
	}
	recs := a.Records
	brecs := b.Records
	if a.Record != nil {
		recs = append([]Record{*a.Record}, recs...)
		brecs = append([]Record{*b.Record}, brecs...)
	}
	for i := range recs {
		if brecs[i].Addr != recs[i].Addr ||
			brecs[i].Number != recs[i].Number ||
			brecs[i].ExpiresUnixMilli != recs[i].ExpiresUnixMilli ||
			len(brecs[i].Vector) != len(recs[i].Vector) {
			t.Fatalf("%s mangled record %d:\n in: %+v\nout: %+v", what, i, recs[i], brecs[i])
		}
	}
	if (a.Stats == nil) != (b.Stats == nil) ||
		(a.Stats != nil && len(a.Stats.Families) != len(b.Stats.Families)) {
		t.Fatalf("%s mangled stats snapshot", what)
	}
	if a.Epoch != b.Epoch || len(a.Peers) != len(b.Peers) {
		t.Fatalf("%s mangled membership:\n in: %+v\nout: %+v", what, a, b)
	}
	for i := range a.Peers {
		if a.Peers[i] != b.Peers[i] {
			t.Fatalf("%s mangled peer %d: %q vs %q", what, i, a.Peers[i], b.Peers[i])
		}
	}
}

// FuzzReadMessage fuzzes the frame reader: arbitrary byte streams must
// never panic or hang it, every input not opening with a version-3
// frame header must be rejected, and every accepted frame must survive
// a re-encode/re-read round trip unchanged, with the re-encoded frame
// stable byte for byte. The seed corpus (here and in
// testdata/fuzz/FuzzReadMessage) keeps the retired JSON frames as
// must-reject inputs, plus version-2 frames (seed_bin_nego is a
// version-2 negotiation echo), and covers binary frames well-formed,
// truncated, and corrupted.
func FuzzReadMessage(f *testing.F) {
	// Retired JSON framing: every one of these must be rejected.
	f.Add([]byte("{\"type\":\"ping\",\"seq\":1}\n"))
	f.Add([]byte("{\"type\":\"pong\",\"seq\":18446744073709551615}\n"))
	f.Add([]byte("{\"type\":\"store\",\"seq\":2,\"record\":{\"addr\":\"a:1\",\"vector\":[1.5,2],\"number\":7,\"expires_unix_milli\":99}}\n"))
	f.Add([]byte("{\"type\":\"publish-batch\",\"seq\":3,\"records\":[{\"addr\":\"a:1\",\"number\":1,\"expires_unix_milli\":1},{\"addr\":\"b:2\",\"number\":2,\"expires_unix_milli\":2}]}\n"))
	f.Add([]byte("{\"type\":\"batch-ack\",\"seq\":3,\"errs\":[\"\",\"store without addr\"]}\n"))
	f.Add([]byte("{\"type\":\"error\",\"seq\":4,\"err\":\"boom\"}\n"))
	f.Add([]byte("{\"type\":\"ping\",\"seq\":8,\"trace\":{\"trace_id\":12345,\"span_id\":678,\"sampled\":true}}\n"))
	f.Add([]byte("{\"type\":\"store\",\"seq\":9,\"record\":{\"addr\":\"a:1\",\"number\":7,\"expires_unix_milli\":99},\"trace\":{\"trace_id\":18446744073709551615,\"span_id\":1}}\n"))
	f.Add([]byte("{\"type\":\"ping\",\"seq\":10,\"trace\":{}}\n"))
	f.Add([]byte("{\"type\":\"ping\",\"seq\":11,\"trace\":{\"trace_id\":-1}}\n"))
	f.Add([]byte("{\"type\":\"ping\",\"seq\":12,\"future_field\":true}\n"))
	f.Add([]byte("{\"type\":\"query\",\"seq\":5,\"number\":123,\"max\":8"))
	f.Add([]byte("{\"type\":\"ping\",\"seq\":"))
	f.Add([]byte("this is not json\n"))
	f.Add([]byte("{\"type\":\"ping\",\"seq\":1}"))
	f.Add([]byte("\n"))
	f.Add([]byte("{\"type\":\"ping\",\"seq\":-1}\n"))
	f.Add([]byte(strings.Repeat("a", 4096) + "\n"))
	f.Add([]byte("{\"type\":\"records\",\"seq\":6,\"records\":[]}\n" +
		"{\"type\":\"ping\",\"seq\":7}\n"))

	// Binary frames: plain, record-bearing, traced, batched, and a
	// version-2 frame that must be rejected.
	f.Add(binFrame(Message{Type: MsgPing, Seq: 1}))
	f.Add(v2Frame(Message{Type: MsgPong, Seq: 2}))
	f.Add(binFrame(Message{Type: MsgStore, Seq: 3, Record: &Record{
		Addr: "a:1", Vector: []float64{1.5, 2}, Number: 7, ExpiresUnixMilli: 99}}))
	f.Add(binFrame(Message{Type: MsgQuery, Seq: 4, Number: 123, Max: -8}))
	f.Add(binFrame(Message{Type: MsgPublishBatch, Seq: 5, Records: []Record{
		{Addr: "a:1", Number: 1}, {Addr: "b:2", Number: 2, ExpiresUnixMilli: -2}}}))
	f.Add(binFrame(Message{Type: MsgBatchAck, Seq: 6, Errs: []string{"", "boom"}}))
	truncated := binFrame(Message{Type: MsgRemove, Seq: 7, Addr: "a:1"})
	f.Add(truncated[:len(truncated)-3]) // binary frame cut mid-payload
	corrupt := binFrame(Message{Type: MsgPing, Seq: 8})
	corrupt[2] = 0xee // unknown type code
	f.Add(corrupt)
	mixed := append(binFrame(Message{Type: MsgPing, Seq: 9}),
		[]byte("{\"type\":\"pong\",\"seq\":10}\n")...)
	f.Add(mixed) // a binary frame, then retired JSON on the same stream
	f.Add(binFrame(Message{Type: MsgPeers, Seq: 11}))
	f.Add(binFrame(Message{Type: MsgPeersReply, Seq: 12, Epoch: 3,
		Peers: []string{"a:1", "b:2", "c:3"}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		var st decodeState
		m, err := readMessageInto(r, &st)
		if err != nil {
			return // rejected input: the only requirement is no panic/hang
		}
		if data[0] != binMagic || data[1] != CodecBinary {
			t.Fatalf("accepted a frame opening %#x %#x, want %#x %#x", data[0], data[1], binMagic, CodecBinary)
		}
		// An accepted frame re-encodes and re-reads to the same message:
		// the codec cannot silently alter Seq (the multiplexer's match
		// key), the type, or the payload shape.
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		if err := WriteMessage(bw, m); err != nil {
			if err == errFrameTooLarge {
				return // outbound writer refuses frames past the cap
			}
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		frame := append([]byte(nil), buf.Bytes()...)
		var st2 decodeState
		m2, err := readMessageInto(bufio.NewReader(&buf), &st2)
		if err != nil {
			t.Fatalf("re-read of accepted frame failed: %v", err)
		}
		sameMessage(t, "round trip", m, m2)
		if again := binFrame(m2); !bytes.Equal(again, frame) {
			t.Fatalf("re-encoding is unstable:\nfirst:  %x\nsecond: %x", frame, again)
		}
	})
}
