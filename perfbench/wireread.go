package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"sync"
	"time"

	"gsso/internal/obs"
	"gsso/internal/wire"
)

// wire-read: a read-heavy open loop on a fleet preloaded with 10^4
// synthetic records, so the nodes' store scan dominates each query.
const (
	readPreload   = 10_000
	readMax       = 24   // records asked for per query
	readRefresh   = 0.10 // share of arrivals that are refresh writes
	refreshSize   = 16   // records per refresh batch
	preloadBatch  = 64
	readCheckRate = 4 // every readCheckRate-th query reply is checked
)

var readParams = wireParams{
	name: "wire-read",
	// About a quarter of the closed-loop throughput measured on the code
	// the benchmark was defined on (300-360 ops/s on one CPU). At half of
	// it, queries queued behind each other's scans and a slower stretch of
	// the host multiplied their latency. Fixed so a faster commit faces the
	// same load.
	rate:     90,
	batch:    100,
	probePct: 0.10,
	probes:   []int{kindPing},
}

func runWireRead(ctx context.Context, cfg config) (map[string]metric, *tally, *spans, error) {
	return runWire(ctx, cfg, readParams, func(cfg config) wireLoad { return &readLoad{seed: cfg.seed} })
}

// readLoad holds the generator's own model of every record the fleet
// holds, and the sampled replies to check against it.
type readLoad struct {
	seed  uint64
	gen   *wire.Node
	addrs []string
	space wire.SpaceConfig
	// preload is the synthetic record set, indexable by refresh batches.
	preload []wire.Record
	// model[node] is every live record on that node, sorted by number.
	model map[string][]wire.Record

	mu      sync.Mutex
	replies []checkedReply
}

type checkedReply struct {
	node   string
	number uint64
	got    []wire.Record
}

// synthRecord is preload record i: a seeded synthetic landmark vector
// reduced to its number through the fleet's own space.
func synthRecord(space wire.SpaceConfig, rng *rand.Rand, i int, expires int64) (wire.Record, error) {
	vec := make([]float64, len(space.Landmarks))
	for d := range vec {
		vec[d] = rng.Float64() * maxRTTMs
	}
	num, err := space.Number(vec)
	if err != nil {
		return wire.Record{}, err
	}
	return wire.Record{
		Addr:             fmt.Sprintf("10.%d.%d.%d:4000", byte(i>>16), byte(i>>8), byte(i)),
		Vector:           vec,
		Number:           num,
		ExpiresUnixMilli: expires,
	}, nil
}

func (l *readLoad) setup(f *fleet, gen *wire.Node) error {
	l.gen, l.addrs, l.space = gen, f.addrs, f.space
	tr := gen.Transport()
	// Learn what each node already holds (the fleet's own records)
	// before preloading; the model is per node.
	l.model = map[string][]wire.Record{}
	for _, a := range f.addrs {
		resp, err := tr.RoundTrip(a, wire.Message{Type: wire.MsgQuery, Number: 0, Max: 1 << 10}, rpcTimeout)
		if err != nil {
			return fmt.Errorf("initial query %s: %w", a, err)
		}
		l.model[a] = copyRecords(resp.Records)
	}
	rng := rand.New(rand.NewPCG(l.seed, 0x9E10AD))
	expires := time.Now().Add(fleetTTL).UnixMilli()
	l.preload = make([]wire.Record, readPreload)
	for i := range l.preload {
		rec, err := synthRecord(f.space, rng, i, expires)
		if err != nil {
			return err
		}
		l.preload[i] = rec
	}
	// Replication equals the fleet size, so every node owns every record.
	for lo := 0; lo < len(l.preload); lo += preloadBatch {
		chunk := l.preload[lo:min(lo+preloadBatch, len(l.preload))]
		for _, a := range f.addrs {
			resp, err := tr.RoundTrip(a, wire.Message{Type: wire.MsgPublishBatch, Records: chunk}, rpcTimeout)
			if err != nil {
				return fmt.Errorf("preload %s: %w", a, err)
			}
			if resp.Type != wire.MsgBatchAck || len(resp.Errs) > 0 {
				return fmt.Errorf("preload %s: reply %s errs %v", a, resp.Type, resp.Errs)
			}
		}
	}
	snaps, err := f.stats()
	if err != nil {
		return err
	}
	for i, a := range f.addrs {
		l.model[a] = append(l.model[a], l.preload...)
		sort.Slice(l.model[a], func(x, y int) bool { return l.model[a][x].Number < l.model[a][y].Number })
		if got := seriesValue(snaps[i], "wire_records"); int(got) != len(l.model[a]) {
			return fmt.Errorf("node %s holds %v records after preload, want %d", a, got, len(l.model[a]))
		}
	}
	return nil
}

func (l *readLoad) kind(rng *rand.Rand) int {
	if rng.Float64() < readRefresh {
		return kindOp2
	}
	return kindOp1
}

// do sends one query (op1), refresh batch (op2) or pooled-connection ping.
// Its inputs come from rng, which the caller seeds from the operation's
// index, after kind consumed its first draw.
func (l *readLoad) do(rng *rand.Rand, i, kind int, sp *spans) error {
	tr := l.gen.Transport()
	switch kind {
	case kindOp1:
		num, err := l.space.Number([]float64{rng.Float64() * maxRTTMs, rng.Float64() * maxRTTMs})
		if err != nil {
			return err
		}
		owner := l.gen.OwnerOf(num)
		s := sp.begin("wire.transport.query", uint64(i), 0)
		resp, err := tr.RoundTrip(owner, wire.Message{Type: wire.MsgQuery, Number: num, Max: readMax}, rpcTimeout)
		s.end()
		if err != nil {
			return err
		}
		if resp.Type != wire.MsgRecords {
			return fmt.Errorf("query reply type %s", resp.Type)
		}
		if i%readCheckRate == 0 {
			l.mu.Lock()
			l.replies = append(l.replies, checkedReply{node: owner, number: num, got: copyRecords(resp.Records)})
			l.mu.Unlock()
		}
		return nil
	case kindOp2:
		node := l.addrs[rng.IntN(len(l.addrs))]
		expires := time.Now().Add(fleetTTL).UnixMilli()
		batch := make([]wire.Record, refreshSize)
		for j := range batch {
			batch[j] = l.preload[rng.IntN(len(l.preload))]
			batch[j].ExpiresUnixMilli = expires
		}
		s := sp.begin("wire.transport.batch", uint64(i), 0)
		resp, err := tr.RoundTrip(node, wire.Message{Type: wire.MsgPublishBatch, Records: batch}, rpcTimeout)
		s.end()
		if err != nil {
			return err
		}
		if resp.Type != wire.MsgBatchAck || len(resp.Errs) > 0 {
			return fmt.Errorf("refresh reply %s errs %v", resp.Type, resp.Errs)
		}
		return nil
	case kindPing:
		return ping(tr, l.addrs[rng.IntN(len(l.addrs))], sp, i)
	}
	return fmt.Errorf("wire-read: no operation kind %d", kind)
}

// ping times one round trip on the generator's pooled connection.
func ping(tr *wire.Transport, addr string, sp *spans, i int) error {
	s := sp.begin("wire.transport.ping", uint64(i), 0)
	resp, err := tr.RoundTrip(addr, wire.Message{Type: wire.MsgPing}, rpcTimeout)
	s.end()
	if err == nil && resp.Type != wire.MsgPong {
		err = fmt.Errorf("ping reply type %s", resp.Type)
	}
	return err
}

// verify checks every sampled reply against the model: exactly
// min(max, live) records, ordered by landmark-number distance then Addr,
// each identical to the record the generator stored.
func (l *readLoad) verify(t *tally, _, _ []obs.Snapshot) {
	if corruptOutput && len(l.replies) > 0 {
		l.replies[0].got[0].Number ^= 1
	}
	for _, r := range l.replies {
		want := nearestModel(l.model[r.node], r.number, readMax)
		if !sameRecords(r.got, want) {
			t.fail("query %d on %s: reply differs from the model (%d records, want %d)",
				r.number, r.node, len(r.got), len(want))
		}
	}
	if len(l.replies) == 0 {
		t.fail("wire-read: no query reply was checked")
	}
}

// nearestModel returns the max records of sorted (by number) closest to
// number, by distance then Addr — the order a node must reply in.
func nearestModel(sorted []wire.Record, number uint64, max int) []wire.Record {
	dist := func(r wire.Record) uint64 {
		if r.Number > number {
			return r.Number - number
		}
		return number - r.Number
	}
	hi := sort.Search(len(sorted), func(i int) bool { return sorted[i].Number >= number })
	lo := hi - 1
	var cand []wire.Record
	// Walk outward in distance order; keep going past max while the next
	// record ties the distance of the max-th, so Addr can break the tie.
	for lo >= 0 || hi < len(sorted) {
		var next wire.Record
		if hi >= len(sorted) || (lo >= 0 && dist(sorted[lo]) <= dist(sorted[hi])) {
			next = sorted[lo]
			lo--
		} else {
			next = sorted[hi]
			hi++
		}
		if len(cand) >= max && dist(next) > dist(cand[max-1]) {
			break
		}
		cand = append(cand, next)
	}
	sort.SliceStable(cand, func(a, b int) bool {
		da, db := dist(cand[a]), dist(cand[b])
		if da != db {
			return da < db
		}
		return cand[a].Addr < cand[b].Addr
	})
	return cand[:min(max, len(cand))]
}

func sameRecords(got, want []wire.Record) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Addr != want[i].Addr || got[i].Number != want[i].Number ||
			!slices.Equal(got[i].Vector, want[i].Vector) {
			return false
		}
	}
	return true
}

func copyRecords(recs []wire.Record) []wire.Record {
	out := make([]wire.Record, len(recs))
	for i, r := range recs {
		out[i] = r
		out[i].Vector = append([]float64(nil), r.Vector...)
	}
	return out
}
