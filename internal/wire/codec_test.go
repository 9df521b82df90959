package wire

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"
	"time"

	"gsso/internal/obs/span"
)

// codecMessages is a spread of frames covering every field the binary
// layout carries.
func codecMessages() []Message {
	return []Message{
		{Type: MsgPing, Seq: 1},
		{Type: MsgPong, Seq: 2},
		{Type: MsgStore, Seq: 3, Record: &Record{
			Addr: "10.0.0.1:9000", Vector: []float64{1.5, 2.25, 0}, Number: 1234, ExpiresUnixMilli: 99999,
		}},
		{Type: MsgQuery, Seq: 4, Number: 777, Max: 8},
		{Type: MsgQuery, Seq: 5, Number: 0, Max: -3},
		{Type: MsgRecords, Seq: 6, Records: []Record{
			{Addr: "a:1", Number: 1},
			{Addr: "b:2", Vector: []float64{0.5}, Number: 2, ExpiresUnixMilli: -7},
		}},
		{Type: MsgRemove, Seq: 7, Addr: "1.2.3.4:5"},
		{Type: MsgRemoved, Seq: 8, Addr: "1.2.3.4:5"},
		{Type: MsgBatchAck, Seq: 9, Errs: []string{"", "store without addr", ""}},
		{Type: MsgError, Seq: 10, Err: "boom"},
		{Type: MsgStore, Seq: 11, Trace: &span.Context{TraceID: 0xdeadbeef, SpanID: 42, Sampled: true},
			Record: &Record{Addr: "x:1"}},
		{Type: MsgPublishBatch, Seq: 12, Records: []Record{{Addr: "x:1", Number: 3}}},
	}
}

func TestBinaryCodecRoundTrip(t *testing.T) {
	for _, in := range codecMessages() {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := WriteMessage(w, in); err != nil {
			t.Fatalf("write %v: %v", in.Type, err)
		}
		if buf.Bytes()[0] != binMagic {
			t.Fatalf("%v: frame not binary (first byte %#x)", in.Type, buf.Bytes()[0])
		}
		out, err := ReadMessage(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("read %v: %v", in.Type, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip mangled %v:\n in: %+v\nout: %+v", in.Type, in, out)
		}
	}
}

// TestBinaryCodecStats covers the stats frame separately: the snapshot
// rides as embedded JSON, so equality is checked on the re-marshaled
// form rather than DeepEqual of the whole Message.
func TestBinaryCodecStats(t *testing.T) {
	node, err := NewNode("127.0.0.1:0", testConfig([]string{"x"}), nil, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	snap := node.Registry().Snapshot()
	in := Message{Type: MsgStatsReply, Seq: 77, Stats: &snap}
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := WriteMessage(w, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadMessage(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats == nil || len(out.Stats.Families) != len(snap.Families) {
		t.Fatalf("stats snapshot mangled: %+v", out.Stats)
	}
}

// TestBinaryCodecTruncation feeds every prefix of a valid binary frame:
// each must error, never panic or misparse.
func TestBinaryCodecTruncation(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := WriteMessage(w, codecMessages()[2]); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for i := 0; i < len(full); i++ {
		if _, err := ReadMessage(bufio.NewReader(bytes.NewReader(full[:i]))); err == nil {
			t.Fatalf("prefix of %d/%d bytes parsed without error", i, len(full))
		}
	}
}

// TestBinaryCodecOversizedFrame checks the payload cap fires before the
// body is buffered.
func TestBinaryCodecOversizedFrame(t *testing.T) {
	frame := make([]byte, binHeaderLen)
	frame[0] = binMagic
	frame[1] = CodecBinary
	frame[2] = 1 // ping
	frame[4] = 0xff
	frame[5] = 0xff
	frame[6] = 0xff
	frame[7] = 0x7f // payload length far above maxFrame
	if _, err := ReadMessage(bufio.NewReader(bytes.NewReader(frame))); err != errFrameTooLarge {
		t.Fatalf("oversized frame: err = %v, want errFrameTooLarge", err)
	}
}
