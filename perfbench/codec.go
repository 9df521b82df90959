package main

import (
	"bufio"
	"fmt"
	"io"
	"runtime"
	"time"

	"gsso/internal/wire"
)

// codecShapes are the frames the wire workloads exchange most: a ping, a
// single-record store, a query reply of readMax records and a refresh
// batch of refreshSize records.
func codecShapes() map[string]wire.Message {
	recs := func(n int) []wire.Record {
		out := make([]wire.Record, n)
		for i := range out {
			out[i] = wire.Record{
				Addr:             fmt.Sprintf("10.0.%d.%d:4000", byte(i>>8), byte(i)),
				Vector:           []float64{12.5 + float64(i), 40.25},
				Number:           uint64(500 + i),
				ExpiresUnixMilli: 1_700_000_000_000,
			}
		}
		return out
	}
	store := recs(1)[0]
	return map[string]wire.Message{
		"ping":      {Type: wire.MsgPing, Seq: 7},
		"store":     {Type: wire.MsgStore, Seq: 7, Record: &store},
		"records24": {Type: wire.MsgRecords, Seq: 7, Records: recs(readMax)},
		"batch16":   {Type: wire.MsgPublishBatch, Seq: 7, Records: recs(refreshSize)},
	}
}

// codecWindow is how long each encode or decode measurement loops.
const codecWindow = 100 * time.Millisecond

// codecLayers times wire.WriteMessageCodec (binary) and wire.ReadMessage
// on each shape in-process: ns and heap allocations per message, and the
// frame's size.
func codecLayers(m map[string]metric) error {
	for name, msg := range codecShapes() {
		var cw countingWriter
		bw := bufio.NewWriterSize(&cw, 64<<10) // holds any shape's frame whole
		if err := wire.WriteMessageCodec(bw, msg, wire.CodecBinary); err != nil {
			return fmt.Errorf("codec %s: %w", name, err)
		}
		frame := append([]byte(nil), cw.last...)
		var err error
		encNS, encAllocs := perOp(func() {
			if e := wire.WriteMessageCodec(bw, msg, wire.CodecBinary); e != nil {
				err = e
			}
		})
		br := bufio.NewReader(&loopReader{frame: frame})
		decNS, decAllocs := perOp(func() {
			if _, e := wire.ReadMessage(br); e != nil {
				err = e
			}
		})
		if err != nil {
			return fmt.Errorf("codec %s: %w", name, err)
		}
		m["wire.codec.encode_ns."+name] = ns(encNS)
		m["wire.codec.decode_ns."+name] = ns(decNS)
		m["wire.codec.bytes."+name] = metric{Value: float64(len(frame)), Unit: "B"}
		m["wire.codec.allocs."+name] = count(encAllocs + decAllocs)
	}
	return nil
}

// perOp loops fn for codecWindow and returns its mean ns and heap
// allocations per call.
func perOp(fn func()) (nsPerOp, allocsPerOp float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	n := 0
	for time.Since(start) < codecWindow {
		for j := 0; j < 256; j++ {
			fn()
		}
		n += 256
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// countingWriter discards what it is written, remembering the last
// write: one flushed frame.
type countingWriter struct{ last []byte }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.last = append(w.last[:0], p...)
	return len(p), nil
}

// loopReader serves one frame over and over.
type loopReader struct {
	frame []byte
	off   int
}

func (r *loopReader) Read(p []byte) (int, error) {
	if len(r.frame) == 0 {
		return 0, io.EOF
	}
	n := 0
	for n < len(p) {
		c := copy(p[n:], r.frame[r.off:])
		n += c
		r.off = (r.off + c) % len(r.frame)
	}
	return n, nil
}
