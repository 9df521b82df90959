// Package wire runs the paper's proximity subsystem over a real network:
// nodes measure RTTs to landmark nodes with TCP pings, reduce the vector
// to a landmark number through the same Hilbert machinery as the
// simulator, publish soft-state records (address, vector, number, TTL)
// onto peer nodes keyed by landmark number, and answer nearest-peer
// queries by returning the records closest to a caller's number.
//
// The full overlay protocol (eCAN zones, routing) is exercised by the
// simulator; wire demonstrates that the proximity-generation and
// soft-state code paths are not simulator-only. Placement uses a one-hop
// ring over a static peer list — the degenerate Chord of the appendix.
//
// Framing is length-prefixed binary over TCP (layout in codec.go); every
// frame carries a version byte, and a reader rejects any version but
// CodecBinary. Connections are persistent and multiplexed: many
// requests may be in flight on one connection at once, and responses
// are matched back to callers by Seq (see Transport). The package-level
// helpers (Ping, Store, Query, ...) keep the simple dial-per-call
// behavior for scripts and tests; node client calls go through the
// node's pooled Transport.
package wire

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"gsso/internal/obs"
	"gsso/internal/obs/span"
)

// MsgType enumerates protocol messages.
type MsgType string

// Protocol messages.
const (
	MsgPing       MsgType = "ping"
	MsgPong       MsgType = "pong"
	MsgStore      MsgType = "store"
	MsgStored     MsgType = "stored"
	MsgQuery      MsgType = "query"
	MsgRecords    MsgType = "records"
	MsgStats      MsgType = "stats"
	MsgStatsReply MsgType = "stats-reply"
	MsgRemove     MsgType = "remove"
	MsgRemoved    MsgType = "removed"
	// MsgPublishBatch carries several soft-state records in one frame:
	// publishes and refreshes headed for the same ring owner are coalesced
	// by the client-side batcher instead of paying one round trip each.
	MsgPublishBatch MsgType = "publish-batch"
	// MsgBatchAck answers a publish-batch. A fully stored batch has no
	// Errs; a partially failed one carries one entry per record (empty
	// string = stored) so the sender can account per record.
	MsgBatchAck MsgType = "batch-ack"
	// MsgPeers asks a node for its current peer ring; MsgPeersReply
	// carries the sorted peer list and the ring epoch it belongs to.
	// Operators and the e2e checker use it to learn the live membership
	// instead of trusting a boot-time spec.
	MsgPeers      MsgType = "peers"
	MsgPeersReply MsgType = "peers-reply"
	MsgError      MsgType = "error"
)

// Record is one soft-state entry: a peer's position in the landmark
// space.
type Record struct {
	// Addr is the peer's dialable address.
	Addr string
	// Vector is the peer's landmark vector (RTTs in ms, landmark order).
	Vector []float64
	// Number is the peer's scalar landmark number.
	Number uint64
	// ExpiresUnixMilli is the soft-state deadline.
	ExpiresUnixMilli int64
}

// Expired reports whether the record is past its deadline at now.
func (r Record) Expired(now time.Time) bool {
	return now.UnixMilli() > r.ExpiresUnixMilli
}

// Message is the single wire frame.
type Message struct {
	Type MsgType
	// Seq echoes request sequence numbers into responses.
	Seq uint64
	// Record rides on store requests.
	Record *Record
	// Number keys query requests.
	Number uint64
	// Max bounds how many records a query wants back.
	Max int
	// Records ride on query responses and publish-batch requests.
	Records []Record
	// Errs ride on batch-ack responses to a partially failed batch: one
	// entry per request record, empty string = stored.
	Errs []string
	// Addr keys remove requests (the record to withdraw) and echoes on
	// removed responses.
	Addr string
	// Stats rides on stats-reply responses: the serving node's full
	// telemetry snapshot, so peers can scrape each other.
	Stats *obs.Snapshot
	// Trace carries the distributed-tracing context on sampled requests:
	// the trace ID, the caller's span (which the server's span parents
	// to), and the head sampling bit. Absent on unsampled traffic: the
	// frame's trace flag stays clear and decoders read "unsampled".
	Trace *span.Context
	// Peers rides on peers-reply responses: the serving node's current
	// peer ring, sorted. Together with Epoch it lets any client see the
	// membership a node is actually routing on.
	Peers []string
	// Epoch rides on peers-reply responses: the ring epoch the Peers
	// list belongs to. It starts at 1 and increments on every applied
	// SetPeers, so differing epochs across a fleet expose membership
	// drift mid-reconfiguration.
	Epoch uint64
	// Err describes failures on MsgError.
	Err string
}

// maxFrame bounds one frame's payload; larger frames are rejected to
// bound memory against misbehaving peers.
const maxFrame = 1 << 20

// errFrameTooLarge rejects frames that exceed maxFrame. The reader
// checks the header's length field, before the payload is buffered.
var errFrameTooLarge = fmt.Errorf("wire: frame exceeds %d-byte limit", maxFrame)

// frameEncoder holds a reusable frame buffer, so the per-frame encode
// allocation is paid once per pooled encoder, not once per message.
type frameEncoder struct{ bin []byte }

var encoderPool = sync.Pool{New: func() any { return &frameEncoder{} }}

// WriteMessage encodes m as one binary frame and flushes it.
func WriteMessage(w *bufio.Writer, m Message) error {
	fe := encoderPool.Get().(*frameEncoder)
	defer encoderPool.Put(fe)
	buf, err := appendMessageBinary(fe.bin[:0], &m)
	fe.bin = buf[:0]
	if err != nil {
		return err
	}
	if len(buf)-binHeaderLen > maxFrame {
		return errFrameTooLarge
	}
	if _, err := w.Write(buf); err != nil {
		return err
	}
	return w.Flush()
}

// WriteMessageCodec is WriteMessage with the frame version spelled out,
// for tools that pin it: any version but CodecBinary is an error.
func WriteMessageCodec(w *bufio.Writer, m Message, codec uint8) error {
	if codec != CodecBinary {
		return fmt.Errorf("%w: cannot write version %d, only version %d", errFrameVersion, codec, CodecBinary)
	}
	return WriteMessage(w, m)
}

// ReadMessage reads one binary frame. Frames above 1 MiB are rejected
// before their payload is buffered, to bound memory against misbehaving
// peers; '{'-led frames (the retired JSON framing) and frames of any
// version but CodecBinary are rejected with errors naming the mismatch.
func ReadMessage(r *bufio.Reader) (Message, error) {
	var st decodeState
	return readMessageInto(r, &st)
}

// readMessageInto is ReadMessage with an explicit per-connection decode
// state (scratch buffer, intern table), reused across frames by the
// persistent-connection read loops.
func readMessageInto(r *bufio.Reader, st *decodeState) (Message, error) {
	first, err := r.Peek(1)
	if err != nil {
		return Message{}, err
	}
	switch first[0] {
	case binMagic:
		return readMessageBinary(r, st)
	case '{':
		return Message{}, errJSONFraming
	default:
		return Message{}, fmt.Errorf("wire: not a frame: first byte %#x, want %#x", first[0], binMagic)
	}
}

// roundTrip dials addr, sends req, and reads one response.
func roundTrip(addr string, req Message, timeout time.Duration) (Message, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return Message{}, err
	}
	defer conn.Close()
	deadline := time.Now().Add(timeout)
	if err := conn.SetDeadline(deadline); err != nil {
		return Message{}, err
	}
	bw := bufio.NewWriter(conn)
	if err := WriteMessage(bw, req); err != nil {
		return Message{}, err
	}
	resp, err := ReadMessage(bufio.NewReader(conn))
	if err != nil {
		return Message{}, err
	}
	// Protocol-level failures are permanent: the peer is reachable and
	// answering, so retrying the identical request cannot help.
	if resp.Type == MsgError {
		return resp, permanent(fmt.Errorf("wire: remote error: %s", resp.Err))
	}
	if resp.Seq != req.Seq {
		return resp, permanent(fmt.Errorf("wire: response seq %d for request %d", resp.Seq, req.Seq))
	}
	return resp, nil
}

// The client helpers below take an optional trailing RetryPolicy; without
// one they perform a single attempt. Transport failures retry under the
// policy (capped exponential backoff, full jitter); protocol errors never
// retry.

// Ping measures the RTT to addr with one request/response round trip. The
// returned RTT times only the successful attempt.
func Ping(addr string, timeout time.Duration, policy ...RetryPolicy) (time.Duration, error) {
	var rtt time.Duration
	err := withRetry(optPolicy(policy), nil, nil, func() error {
		start := time.Now()
		resp, err := roundTrip(addr, Message{Type: MsgPing, Seq: 1}, timeout)
		if err != nil {
			return err
		}
		if resp.Type != MsgPong {
			return permanent(fmt.Errorf("wire: unexpected response %q to ping", resp.Type))
		}
		rtt = time.Since(start)
		return nil
	})
	return rtt, err
}

// Store publishes a record to the peer at addr.
func Store(addr string, rec Record, timeout time.Duration, policy ...RetryPolicy) error {
	return withRetry(optPolicy(policy), nil, nil, func() error {
		resp, err := roundTrip(addr, Message{Type: MsgStore, Seq: 2, Record: &rec}, timeout)
		if err != nil {
			return err
		}
		if resp.Type != MsgStored {
			return permanent(fmt.Errorf("wire: unexpected response %q to store", resp.Type))
		}
		return nil
	})
}

// Query asks the peer at addr for up to max records nearest to number.
func Query(addr string, number uint64, max int, timeout time.Duration, policy ...RetryPolicy) ([]Record, error) {
	var recs []Record
	err := withRetry(optPolicy(policy), nil, nil, func() error {
		resp, err := roundTrip(addr, Message{Type: MsgQuery, Seq: 3, Number: number, Max: max}, timeout)
		if err != nil {
			return err
		}
		if resp.Type != MsgRecords {
			return permanent(fmt.Errorf("wire: unexpected response %q to query", resp.Type))
		}
		recs = resp.Records
		return nil
	})
	return recs, err
}

// Remove withdraws the record identified by recordAddr from the peer at
// addr (the proactive-departure case of §5.2: a node leaving gracefully
// deletes its soft-state instead of letting it expire). Removing an
// absent record succeeds — the goal state already holds.
func Remove(addr, recordAddr string, timeout time.Duration, policy ...RetryPolicy) error {
	return withRetry(optPolicy(policy), nil, nil, func() error {
		resp, err := roundTrip(addr, Message{Type: MsgRemove, Seq: 5, Addr: recordAddr}, timeout)
		if err != nil {
			return err
		}
		if resp.Type != MsgRemoved {
			return permanent(fmt.Errorf("wire: unexpected response %q to remove", resp.Type))
		}
		return nil
	})
}

// FetchPeers asks the node at addr for its current peer ring and the
// ring epoch it belongs to. The list is the membership the node actually
// routes on — after a reconfiguration every node converges to the same
// list and epoch, so comparing answers across a fleet detects drift.
func FetchPeers(addr string, timeout time.Duration, policy ...RetryPolicy) ([]string, uint64, error) {
	var peers []string
	var epoch uint64
	err := withRetry(optPolicy(policy), nil, nil, func() error {
		resp, err := roundTrip(addr, Message{Type: MsgPeers, Seq: 6}, timeout)
		if err != nil {
			return err
		}
		if resp.Type != MsgPeersReply {
			return permanent(fmt.Errorf("wire: unexpected response %q to peers", resp.Type))
		}
		peers, epoch = resp.Peers, resp.Epoch
		return nil
	})
	return peers, epoch, err
}

// FetchStats scrapes the telemetry snapshot of the peer at addr through
// the STATS wire op.
func FetchStats(addr string, timeout time.Duration, policy ...RetryPolicy) (obs.Snapshot, error) {
	var snap obs.Snapshot
	err := withRetry(optPolicy(policy), nil, nil, func() error {
		resp, err := roundTrip(addr, Message{Type: MsgStats, Seq: 4}, timeout)
		if err != nil {
			return err
		}
		if resp.Type != MsgStatsReply || resp.Stats == nil {
			return permanent(fmt.Errorf("wire: unexpected response %q to stats", resp.Type))
		}
		snap = *resp.Stats
		return nil
	})
	return snap, err
}
