package main

import (
	"container/heap"
	"math"
	"runtime/debug"
	"time"
)

// On a shared host how long the same work takes is not only the
// program's doing: for seconds to minutes at a time the other tenants
// make the sim-scale cells and the wire workloads' closed-loop batches
// up to 60% slower, the same instructions taking longer (README.md, "Host-normalised times"). No run this benchmark can
// afford outlasts those periods. So the benchmark also times a fixed
// reference workload — a seeded random graph, Dijkstra from a few
// sources, random lookups into the distance rows, all in the benchmark's
// own code — right before and after each sim-scale cell and each wire
// leg, and reports the cell's or leg's times scaled by refNominalMS over
// the reference's time: what they would have been with the host running
// the reference in refNominalMS. A change to the program moves the cells
// and legs and not the reference; a slower host moves both.
const (
	// refNominalMS is the reference's time the cells are normalised
	// to: its median during sim-scale passes on the host this benchmark
	// was defined on. Any value would do, as long as it never changes.
	refNominalMS = 66.0
	refLookups   = 400_000
)

// hostRefMS runs the reference workload, starting from a collected heap
// as every sim-scale cell does, and returns its wall time in ms.
func hostRefMS() float64 {
	debug.FreeOSMemory()
	start := time.Now()
	refGraph(3_000, 16)
	refGraph(10_000, 4)
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// refScale is the factor that host-normalises a time measured between
// reference runs that took refBefore and refAfter ms.
func refScale(refBefore, refAfter float64) float64 {
	return refNominalMS / ((refBefore + refAfter) / 2)
}

type refEdge struct {
	to int32
	w  float64
}

type refItem struct {
	node int32
	d    float64
}

type refQueue []refItem

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].d < q[j].d }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(refItem)) }
func (q *refQueue) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// refSink keeps the compiler from dropping the reference's lookups.
var refSink float64

// refGraph builds a connected random graph of the given size with mean
// degree 4 from a fixed xorshift stream, runs Dijkstra from `sources`
// nodes, and sums refLookups random entries of the distance rows.
func refGraph(nodes, sources int) {
	x := uint64(0x2545f4914f6cdd1d)
	rnd := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	adj := make([][]refEdge, nodes)
	link := func(i, j int) {
		w := 1 + float64(rnd()%1000)
		adj[i] = append(adj[i], refEdge{int32(j), w})
		adj[j] = append(adj[j], refEdge{int32(i), w})
	}
	for i := 1; i < nodes; i++ { // a random tree keeps it connected
		link(i, int(rnd()%uint64(i)))
	}
	for k := 0; k < nodes*3/2; k++ {
		link(int(rnd()%uint64(nodes)), int(rnd()%uint64(nodes)))
	}
	rows := make([][]float64, sources)
	for s := range rows {
		dist := make([]float64, nodes)
		for i := range dist {
			dist[i] = math.Inf(1)
		}
		src := int32(rnd() % uint64(nodes))
		dist[src] = 0
		q := &refQueue{{src, 0}}
		for q.Len() > 0 {
			it := heap.Pop(q).(refItem)
			if it.d > dist[it.node] {
				continue
			}
			for _, e := range adj[it.node] {
				if d := it.d + e.w; d < dist[e.to] {
					dist[e.to] = d
					heap.Push(q, refItem{e.to, d})
				}
			}
		}
		rows[s] = dist
	}
	sum := 0.0
	for k := 0; k < refLookups; k++ {
		r := rnd()
		sum += rows[r%uint64(sources)][(r>>20)%uint64(nodes)]
	}
	refSink += sum
}
