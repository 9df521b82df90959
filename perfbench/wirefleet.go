package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync/atomic"

	"gsso/internal/obs"
	"gsso/internal/wire"
)

// wire-fleet: find-nearest and publish from a wire.Node inside the
// generator, on a fleet holding only its own records and the
// generator's. Each operation is several small RPCs, so per-frame costs
// dominate and the store scan is trivial.
const (
	fleetBudget = 8 // RTT probes per find-nearest
	fleetPings  = 1 // pings per landmark when publishing
)

var fleetParams = wireParams{
	name: "wire-fleet",
	// About a fifth of the closed-loop throughput measured on the code
	// the benchmark was defined on (6,200-10,500 ops/s). At half of it
	// the open loop tipped into overload whenever the host slowed down;
	// fixed so a faster commit faces the same load.
	rate:     1500,
	batch:    1500,
	probePct: 0.10,
	probes:   []int{kindPing, kindMeasure},
}

func runWireFleet(ctx context.Context, cfg config) (map[string]metric, *tally, *spans, error) {
	return runWire(ctx, cfg, fleetParams, func(config) wireLoad { return &fleetLoad{} })
}

type fleetLoad struct {
	gen       *wire.Node
	addrs     []string
	publishes atomic.Int64
	corrupted atomic.Bool // -corrupt: the first find-nearest answer was corrupted
}

// setup publishes the generator's own record, so find-nearest always
// has the generator, which it skips, and the fleet's nodes to choose
// from.
func (l *fleetLoad) setup(f *fleet, gen *wire.Node) error {
	l.gen, l.addrs = gen, f.addrs
	if _, err := gen.Publish(fleetPings, rpcTimeout); err != nil {
		return fmt.Errorf("generator publish: %w", err)
	}
	l.publishes.Add(1)
	return nil
}

func (l *fleetLoad) kind(rng *rand.Rand) int {
	if rng.IntN(2) == 0 {
		return kindOp1
	}
	return kindOp2
}

// do runs one find-nearest (op1), publish (op2), pooled-connection ping
// or landmark measurement.
func (l *fleetLoad) do(rng *rand.Rand, i, kind int, sp *spans) error {
	switch kind {
	case kindOp1:
		s := sp.begin("wire.client.find_nearest", uint64(i), 0)
		addr, _, err := l.gen.FindNearest(fleetBudget, rpcTimeout)
		s.end()
		if err != nil {
			return err
		}
		if corruptOutput && l.corrupted.CompareAndSwap(false, true) {
			addr = "corrupted"
		}
		if !slices.Contains(l.addrs, addr) {
			return fmt.Errorf("find-nearest returned %q, not a fleet member", addr)
		}
		return nil
	case kindOp2:
		s := sp.begin("wire.client.publish", uint64(i), 0)
		rec, err := l.gen.Publish(fleetPings, rpcTimeout)
		s.end()
		if err != nil {
			return err
		}
		l.publishes.Add(1)
		if rec.Addr != l.gen.Addr() {
			return fmt.Errorf("publish stored %q, want the generator's record", rec.Addr)
		}
		return nil
	case kindPing:
		return ping(l.gen.Transport(), l.addrs[rng.IntN(len(l.addrs))], sp, i)
	case kindMeasure:
		s := sp.begin("wire.client.measure", uint64(i), 0)
		_, err := l.gen.MeasureVector(fleetPings, rpcTimeout)
		s.end()
		return err
	}
	return fmt.Errorf("wire-fleet: no operation kind %d", kind)
}

// verify checks that every publish was acknowledged by every replica:
// the fleet must have served exactly one store per publish per node,
// and answered none with an error.
func (l *fleetLoad) verify(t *tally, before, after []obs.Snapshot) {
	stores := fleetTotal(after, "wire_requests_total", string(wire.MsgStore)) -
		fleetTotal(before, "wire_requests_total", string(wire.MsgStore))
	// The setup publish landed before the first snapshot.
	want := float64((l.publishes.Load() - 1) * fleetNodes)
	if stores != want {
		t.fail("fleet served %v stores, want %v (%d publishes × %d replicas)",
			stores, want, l.publishes.Load()-1, fleetNodes)
	}
	for _, typ := range []wire.MsgType{wire.MsgPing, wire.MsgStore, wire.MsgQuery} {
		if errs := fleetTotal(after, "wire_request_errors_total", string(typ)) -
			fleetTotal(before, "wire_request_errors_total", string(typ)); errs != 0 {
			t.fail("fleet answered %v %s requests with an error", errs, typ)
		}
	}
}
