package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"log/slog"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"gsso/internal/obs"
)

// jsonFrame is a frame in the retired newline-delimited JSON framing.
const jsonFrame = "{\"type\":\"ping\",\"seq\":1}\n"

// v2Frame encodes m in the version-2 layout: the current payload led by
// the codec-advertisement uvarint that version 3 dropped.
func v2Frame(m Message) []byte {
	cur := binFrame(m)
	out := append([]byte(nil), cur[:binHeaderLen]...)
	out[1] = 2
	out = append(out, 0) // codec advertisement: none
	out = append(out, cur[binHeaderLen:]...)
	binary.LittleEndian.PutUint32(out[4:8], uint32(len(out)-binHeaderLen))
	return out
}

func TestReadMessageRejectsJSONFrame(t *testing.T) {
	_, err := ReadMessage(bufio.NewReader(strings.NewReader(jsonFrame)))
	if !errors.Is(err, errJSONFraming) {
		t.Fatalf("JSON frame: err = %v, want errJSONFraming", err)
	}
	if !strings.Contains(err.Error(), "JSON framing is retired") {
		t.Fatalf("error %q does not say the JSON framing is retired", err)
	}
}

func TestReadMessageRejectsOldVersion(t *testing.T) {
	// A pong advertising the binary codec, as a version-2 server echoed
	// it during negotiation (testdata/fuzz/FuzzReadMessage/seed_bin_nego).
	echo := []byte("\xbf\x02\x02\x00\a\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00")
	for _, frame := range [][]byte{v2Frame(Message{Type: MsgPing, Seq: 1}), echo} {
		_, err := ReadMessage(bufio.NewReader(bytes.NewReader(frame)))
		if !errors.Is(err, errFrameVersion) {
			t.Fatalf("version-2 frame %x: err = %v, want errFrameVersion", frame, err)
		}
		if msg := err.Error(); !strings.Contains(msg, "version 2") || !strings.Contains(msg, "version 3") {
			t.Fatalf("error %q does not name both versions", msg)
		}
	}
}

func TestWriteMessageCodecPinsVersion(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := WriteMessageCodec(bw, Message{Type: MsgPing}, 2); !errors.Is(err, errFrameVersion) {
		t.Fatalf("version 2: err = %v, want errFrameVersion", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("a refused version wrote %d bytes", buf.Len())
	}
	if err := WriteMessageCodec(bw, Message{Type: MsgPing, Seq: 4}, CodecBinary); err != nil {
		t.Fatal(err)
	}
	if m, err := ReadMessage(bufio.NewReader(&buf)); err != nil || m.Type != MsgPing || m.Seq != 4 {
		t.Fatalf("pinned frame read back as %+v, %v", m, err)
	}
}

// lockedBuffer is a log sink safe for the node's concurrent serve loops.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestNodeDropsRetiredFrames sends a JSON frame and a version-2 frame to
// a live node: each connection is closed unanswered with the reason
// logged, while another client's pooled connection keeps querying.
func TestNodeDropsRetiredFrames(t *testing.T) {
	var logs lockedBuffer
	node, err := NewNode("127.0.0.1:0", testConfig([]string{"x"}), nil, time.Minute,
		WithLogger(slog.New(slog.NewTextHandler(&logs, nil))))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	rec := Record{Addr: "x:1", Number: 3, ExpiresUnixMilli: time.Now().Add(time.Minute).UnixMilli()}
	if err := Store(node.Addr(), rec, testTimeout); err != nil {
		t.Fatal(err)
	}
	tr := NewTransport(1)
	defer tr.Close()
	query := func() {
		t.Helper()
		resp, err := tr.RoundTrip(node.Addr(), Message{Type: MsgQuery, Number: 3, Max: 4}, testTimeout)
		if err != nil || len(resp.Records) != 1 || resp.Records[0].Addr != "x:1" {
			t.Fatalf("query = %+v, %v", resp, err)
		}
	}
	query()

	for _, tc := range []struct {
		name, frame, logged string
	}{
		{"json", jsonFrame, "JSON framing is retired"},
		{"v2", string(v2Frame(Message{Type: MsgPing, Seq: 1})), "got version 2, want version 3"},
	} {
		conn, err := net.DialTimeout("tcp", node.Addr(), testTimeout)
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.SetDeadline(time.Now().Add(testTimeout))
		if _, err := conn.Write([]byte(tc.frame)); err != nil {
			t.Fatal(err)
		}
		n, err := conn.Read(make([]byte, 64))
		conn.Close()
		var ne net.Error
		switch {
		case n > 0:
			t.Fatalf("%s: node answered a retired frame with %d bytes", tc.name, n)
		case errors.As(err, &ne) && ne.Timeout():
			t.Fatalf("%s: node kept the connection open", tc.name)
		}
		query()
		if tr.Open(node.Addr()) != 1 {
			t.Fatalf("%s: the healthy client's connection was lost", tc.name)
		}
		if !strings.Contains(logs.String(), tc.logged) {
			t.Fatalf("%s: drop reason %q not logged; log:\n%s", tc.name, tc.logged, logs.String())
		}
	}
}

// TestDialPerCallWritesBinary serves FetchStats and Query from a bare
// listener and checks that each request frame opens with binMagic.
func TestDialPerCallWritesBinary(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	firsts := make(chan byte, 2)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			br := bufio.NewReader(c)
			if b, err := br.Peek(1); err == nil {
				firsts <- b[0]
			}
			if req, err := ReadMessage(br); err == nil {
				resp := Message{Type: MsgRecords, Seq: req.Seq, Records: []Record{{Addr: "a:1", Number: req.Number}}}
				if req.Type == MsgStats {
					resp = Message{Type: MsgStatsReply, Seq: req.Seq, Stats: &obs.Snapshot{}}
				}
				_ = WriteMessage(bufio.NewWriter(c), resp)
			}
			c.Close()
		}
	}()
	addr := ln.Addr().String()

	if _, err := FetchStats(addr, testTimeout); err != nil {
		t.Fatalf("FetchStats: %v", err)
	}
	if first := <-firsts; first != binMagic {
		t.Fatalf("FetchStats frame opens with %#x, want %#x", first, binMagic)
	}
	recs, err := Query(addr, 7, 1, testTimeout)
	if err != nil || len(recs) != 1 || recs[0].Number != 7 {
		t.Fatalf("Query = %+v, %v", recs, err)
	}
	if first := <-firsts; first != binMagic {
		t.Fatalf("Query frame opens with %#x, want %#x", first, binMagic)
	}
}

// TestStatsEncodeFailureRepliesError: a snapshot the frame cannot carry
// (a NaN gauge has no JSON form) is answered with a MsgError, not a
// dropped connection, and the node keeps serving.
func TestStatsEncodeFailureRepliesError(t *testing.T) {
	node := startNode(t, stubCfg(), nil)
	node.Registry().Gauge("test_nan", "A gauge JSON cannot encode.").With().Set(math.NaN())
	_, err := FetchStats(node.Addr(), testTimeout)
	if err == nil || !isPermanent(err) || !strings.Contains(err.Error(), "remote error") {
		t.Fatalf("FetchStats with a NaN gauge = %v, want a permanent remote error", err)
	}
	if _, err := Ping(node.Addr(), testTimeout); err != nil {
		t.Fatal(err)
	}
}

// TestTransportEncodeErrorKeepsConnection: a message the frame cannot
// carry fails permanently before any byte is written, so the pooled
// connection stays open for the next call.
func TestTransportEncodeErrorKeepsConnection(t *testing.T) {
	node := startNode(t, stubCfg(), nil)
	tr := NewTransport(1)
	defer tr.Close()
	if _, err := tr.RoundTrip(node.Addr(), Message{Type: MsgPing}, testTimeout); err != nil {
		t.Fatal(err)
	}
	_, err := tr.RoundTrip(node.Addr(), Message{Type: "bogus"}, testTimeout)
	if !errors.Is(err, errEncode) || !isPermanent(err) {
		t.Fatalf("bogus type: err = %v, want a permanent errEncode", err)
	}
	if tr.Open(node.Addr()) != 1 {
		t.Fatal("encode error closed the pooled connection")
	}
	if _, err := tr.RoundTrip(node.Addr(), Message{Type: MsgPing}, testTimeout); err != nil {
		t.Fatal(err)
	}
}
