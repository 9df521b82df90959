package wire

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"gsso/internal/obs/span"
)

// maxBatchRecords caps one MsgPublishBatch frame; a fuller queue flushes
// immediately instead of waiting out the window.
const maxBatchRecords = 64

// batcher coalesces soft-state publishes and refreshes headed for the
// same ring owner into MsgPublishBatch frames. Records enqueue per
// owner; a background loop flushes every batch window, a full queue
// flushes inline, and Flush drains everything synchronously — the
// Withdraw/Close path calls it so a drain never abandons pending
// records.
type batcher struct {
	n      *Node
	window time.Duration

	// sendMu is held across every send; SetPeers takes it after a ring
	// swap, so a send that read the old ring ends before the eviction.
	sendMu sync.Mutex

	mu      sync.Mutex
	pending map[string][]Record
}

func newBatcher(n *Node, window time.Duration) *batcher {
	return &batcher{n: n, window: window, pending: make(map[string][]Record)}
}

// loop flushes pending batches every window until the node stops.
func (b *batcher) loop() {
	defer b.n.wg.Done()
	ticker := time.NewTicker(b.window)
	defer ticker.Stop()
	for {
		select {
		case <-b.n.stop:
			return
		case <-ticker.C:
			b.Flush(b.n.opt.batchTimeout)
		}
	}
}

// Enqueue queues one record for owner. A queue at capacity is flushed
// inline on the calling goroutine.
func (b *batcher) Enqueue(owner string, rec Record) {
	b.mu.Lock()
	b.pending[owner] = append(b.pending[owner], rec)
	var full []Record
	if len(b.pending[owner]) >= maxBatchRecords {
		full = b.pending[owner]
		delete(b.pending, owner)
	}
	b.mu.Unlock()
	if full != nil {
		b.sendMu.Lock()
		b.send(owner, full, b.n.opt.batchTimeout)
		b.sendMu.Unlock()
	}
}

// Pending reports how many records are queued across all owners.
func (b *batcher) Pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	total := 0
	for _, recs := range b.pending {
		total += len(recs)
	}
	return total
}

// Flush synchronously sends every pending batch.
func (b *batcher) Flush(timeout time.Duration) {
	b.sendMu.Lock()
	defer b.sendMu.Unlock()
	b.mu.Lock()
	batches := b.pending
	b.pending = make(map[string][]Record)
	b.mu.Unlock()
	for owner, recs := range batches {
		b.send(owner, recs, timeout)
	}
}

// send ships one batch and accounts the outcome: per-record errors from
// a partially failed batch and whole-frame failures both land in
// wire_batch_errors_total; soft-state heals the lost records on the next
// refresh tick either way. Records queued for an owner that has since
// left the ring are dropped and counted there too: sending them would
// re-dial a peer SetPeers evicted. Each flushed frame roots its own
// trace (a frame coalesces records from many enqueuers, so no single
// publish can parent it). The caller holds sendMu.
func (b *batcher) send(owner string, recs []Record, timeout time.Duration) {
	n := b.n
	if _, in := slices.BinarySearch(n.ring.Load().peers, owner); !in {
		n.metrics.batchErrors.Add(float64(len(recs)))
		n.opt.logger.Debug("wire: batch owner left the ring",
			"node", n.addr, "owner", owner, "records", len(recs))
		return
	}
	root := n.opt.spans.StartRoot("publish-batch")
	n.metrics.batchSize.Observe(float64(len(recs)))
	errs, err := n.sendBatchCtx(root.Context(), owner, recs, timeout)
	root.Finish(span.Outcome(err), 0, err)
	if err != nil {
		n.metrics.batchErrors.Add(float64(len(recs)))
		n.opt.logger.Debug("wire: batch flush failed",
			"node", n.addr, "owner", owner, "records", len(recs), "err", err)
		return
	}
	failed := 0
	for i, e := range errs {
		if e == "" {
			continue
		}
		failed++
		n.opt.logger.Debug("wire: batch record rejected",
			"node", n.addr, "owner", owner, "record", recs[i].Addr, "err", e)
	}
	n.metrics.batchRecords.Add(float64(len(recs) - failed))
	if failed > 0 {
		n.metrics.batchErrors.Add(float64(failed))
	}
}

// sendBatch ships recs to owner in one MsgPublishBatch frame through the
// breaker + retry machinery. It returns the per-record errors (nil when
// every record stored; otherwise one entry per record, empty = stored)
// and the transport-level error when the frame itself failed.
func (n *Node) sendBatch(owner string, recs []Record, timeout time.Duration) ([]string, error) {
	return n.sendBatchCtx(span.Context{}, owner, recs, timeout)
}

func (n *Node) sendBatchCtx(parent span.Context, owner string, recs []Record, timeout time.Duration) ([]string, error) {
	if len(recs) == 0 {
		return nil, nil
	}
	var errs []string
	err := n.call(MsgPublishBatch, owner, parent, func(tc *span.Context) error {
		resp, err := n.tr.RoundTrip(owner, Message{Type: MsgPublishBatch, Records: recs, Trace: tc}, timeout)
		if err != nil {
			return err
		}
		if resp.Type != MsgBatchAck {
			return permanent(fmt.Errorf("wire: unexpected response %q to publish-batch", resp.Type))
		}
		errs = resp.Errs
		return nil
	})
	if err != nil {
		return nil, err
	}
	if errs != nil && len(errs) != len(recs) {
		return nil, fmt.Errorf("wire: batch ack carries %d errors for %d records", len(errs), len(recs))
	}
	return errs, nil
}
