package main

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"time"

	"gsso/internal/cluster"
	"gsso/internal/obs"
	"gsso/internal/wire"
)

// The fleet is two overlayd processes booted by internal/cluster: both
// are landmarks, every record is replicated on both, and the TTL outlives
// any run, so no record expires and no node republishes mid-run.
const (
	fleetNodes   = 2
	fleetTTL     = time.Hour
	rpcTimeout   = 5 * time.Second
	indexDims    = 3
	bitsPerDim   = 5
	maxRTTMs     = 100
	fleetSetups  = 3
	statsTimeout = 5 * time.Second
)

// fleet is one booted cluster plus the landmark space its nodes share.
type fleet struct {
	sup   *cluster.Supervisor
	addrs []string // dial addresses in node index order
	space wire.SpaceConfig
	dir   string
}

func bootFleet(cfg config, tag string) (*fleet, error) {
	if cfg.overlayd == "" {
		return nil, fmt.Errorf("no overlayd binary (pass -overlayd)")
	}
	bin, err := filepath.Abs(cfg.overlayd)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.out, "fleet-"+tag+"-")
	if err != nil {
		return nil, err
	}
	spec := cluster.Spec{
		Nodes:        fleetNodes,
		Landmarks:    fleetNodes,
		Replicas:     fleetNodes,
		TTL:          cluster.Duration(fleetTTL),
		Timeout:      cluster.Duration(rpcTimeout),
		DrainTimeout: cluster.Duration(time.Second),
		Seed:         cfg.seed,
		Binary:       bin,
		RunDir:       dir,
		ExtraArgs: []string{
			"-index-dims", fmt.Sprint(indexDims),
			"-bits", fmt.Sprint(bitsPerDim),
			"-max-rtt", fmt.Sprint(maxRTTMs),
		},
	}
	sup, err := cluster.New(spec, nil)
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, err
	}
	f := &fleet{sup: sup, dir: dir}
	if err := sup.Start(); err != nil {
		f.stop()
		return nil, fmt.Errorf("fleet boot: %w", err)
	}
	f.addrs = sup.NodeAddrs()
	f.space = wire.SpaceConfig{
		Landmarks:  f.addrs[:fleetNodes],
		IndexDims:  indexDims,
		BitsPerDim: bitsPerDim,
		MaxRTTMs:   maxRTTMs,
	}
	return f, nil
}

// stop drains every node, waits for each process to exit and removes
// the fleet's logs.
func (f *fleet) stop() {
	f.sup.Stop()
	_ = os.RemoveAll(f.dir)
}

// generator starts the load generator's own wire node: it shares the
// fleet's landmark space and ring, and holds one pooled connection per
// fleet node.
func (f *fleet) generator() (*wire.Node, error) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	return wire.NewNode("127.0.0.1:0", f.space, f.addrs, fleetTTL,
		wire.WithPoolSize(1),
		wire.WithReplication(fleetNodes),
		wire.WithLogger(quiet))
}

// peakRSSMB sums the peak resident set size of every fleet process.
func (f *fleet) peakRSSMB() (float64, error) {
	total := 0.0
	for _, st := range f.sup.Status() {
		hwm, err := vmHWM(st.PID)
		if err != nil {
			return 0, fmt.Errorf("node %d: %w", st.Index, err)
		}
		total += hwm
	}
	return total, nil
}

// stats scrapes every fleet node's telemetry over the wire STATS op.
func (f *fleet) stats() ([]obs.Snapshot, error) {
	out := make([]obs.Snapshot, len(f.addrs))
	for i, a := range f.addrs {
		snap, err := wire.FetchStats(a, statsTimeout)
		if err != nil {
			return nil, fmt.Errorf("stats %s: %w", a, err)
		}
		out[i] = snap
	}
	return out, nil
}

// seriesValue returns a counter or gauge series' value (0 if absent).
func seriesValue(snap obs.Snapshot, family string, labels ...string) float64 {
	for _, f := range snap.Families {
		if f.Name != family {
			continue
		}
		for _, s := range f.Series {
			if slices.Equal(s.LabelValues, labels) {
				return s.Value
			}
		}
	}
	return 0
}

// histSum returns a histogram series' observation sum and count.
func histSum(snap obs.Snapshot, family string) (sum float64, n uint64) {
	for _, f := range snap.Families {
		if f.Name != family {
			continue
		}
		for _, s := range f.Series {
			if s.Hist != nil {
				sum += s.Hist.Sum
				n += s.Hist.Count
			}
		}
	}
	return sum, n
}

// fleetTotal sums one series across the fleet's snapshots.
func fleetTotal(snaps []obs.Snapshot, family string, labels ...string) float64 {
	total := 0.0
	for _, s := range snaps {
		total += seriesValue(s, family, labels...)
	}
	return total
}

// serveTotals sums the server-side serve-latency histogram across the
// fleet: total ms spent serving and requests served.
func serveTotals(snaps []obs.Snapshot) (sumMS float64, n uint64) {
	for _, s := range snaps {
		a, b := histSum(s, "wire_serve_latency_ms")
		sumMS += a
		n += b
	}
	return sumMS, n
}
