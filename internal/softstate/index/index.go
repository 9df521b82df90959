// Package index is the number-ordered soft-state index shared by the
// simulator's soft-state store and the live daemon: values keyed by
// identity, plus a view sorted by landmark number that a lookup walks
// outward from its own number — the paper's "index the map with your
// landmark number and widen along the curve" (Table 1).
//
// An Index is not safe for concurrent use: callers guard every method
// with their own lock. A View is an immutable snapshot. Once taken under
// the caller's lock it may be walked after the lock is released, because
// the index builds a fresh sorted slice whenever it changed instead of
// mutating one it handed out.
package index

import (
	"cmp"
	"slices"
)

// Index holds values keyed by K and a number-sorted view of them,
// rebuilt lazily after a change.
type Index[K comparable, V any] struct {
	byKey    map[K]V
	sorted   []V
	dirty    bool
	number   func(V) uint64
	tiebreak func(a, b V) int
}

// New returns an empty index ordering values by number, and values with
// equal numbers by tiebreak (a three-way comparison like cmp.Compare).
func New[K comparable, V any](number func(V) uint64, tiebreak func(a, b V) int) *Index[K, V] {
	return &Index[K, V]{byKey: make(map[K]V), number: number, tiebreak: tiebreak}
}

// Len returns how many values the index holds, expired or not.
func (x *Index[K, V]) Len() int { return len(x.byKey) }

// Get returns the value stored under k.
func (x *Index[K, V]) Get(k K) (V, bool) {
	v, ok := x.byKey[k]
	return v, ok
}

// Put stores v under k, replacing any value there.
func (x *Index[K, V]) Put(k K, v V) {
	x.byKey[k] = v
	x.dirty = true
}

// Delete removes the value stored under k and returns it.
func (x *Index[K, V]) Delete(k K) (V, bool) {
	v, ok := x.byKey[k]
	if ok {
		delete(x.byKey, k)
		x.dirty = true
	}
	return v, ok
}

// DeleteWhere removes every value drop reports true for and returns how
// many went. drop sees the values in map order and must not call back
// into the index.
func (x *Index[K, V]) DeleteWhere(drop func(V) bool) int {
	n := 0
	for k, v := range x.byKey {
		if drop(v) {
			delete(x.byKey, k)
			n++
		}
	}
	if n > 0 {
		x.dirty = true
	}
	return n
}

// All yields every value in map order. The loop body must not call back
// into the index.
func (x *Index[K, V]) All(yield func(V) bool) {
	for _, v := range x.byKey {
		if !yield(v) {
			return
		}
	}
}

// View returns the number-sorted snapshot, rebuilding it first when the
// index changed since the last one. A rebuild also deletes every value
// expired reports true for (nil keeps all), so a caller that never sweeps
// still holds no more dead values than it stored since the last rebuild.
func (x *Index[K, V]) View(expired func(V) bool) View[V] {
	if x.dirty {
		sorted := make([]V, 0, len(x.byKey))
		for k, v := range x.byKey {
			if expired != nil && expired(v) {
				delete(x.byKey, k)
				continue
			}
			sorted = append(sorted, v)
		}
		slices.SortFunc(sorted, func(a, b V) int {
			if c := cmp.Compare(x.number(a), x.number(b)); c != 0 {
				return c
			}
			return x.tiebreak(a, b)
		})
		x.sorted, x.dirty = sorted, false
	}
	return View[V]{sorted: x.sorted, number: x.number, tiebreak: x.tiebreak}
}

// View is an immutable number-sorted snapshot of an index. The zero View
// is empty.
type View[V any] struct {
	sorted   []V
	number   func(V) uint64
	tiebreak func(a, b V) int
}

// Len returns how many values the snapshot holds.
func (v View[V]) Len() int { return len(v.sorted) }

// Walk visits the snapshot outward from num. The upper side starts at
// the first value numbered >= num and the lower side just below it; each
// step takes the lower side when num-lo <= hi-num, so values arrive in
// non-decreasing number distance and a tie in distance goes to the lower
// side. Equal numbers sit in tiebreak order, so the upper side meets them
// ascending and the lower side descending. visit returning false closes
// the side it was called on; the walk ends when both sides are closed or
// run out.
func (v View[V]) Walk(num uint64, visit func(V) bool) {
	s := v.sorted
	hi, _ := slices.BinarySearchFunc(s, num, func(e V, t uint64) int { return cmp.Compare(v.number(e), t) })
	lo := hi - 1
	for lo >= 0 || hi < len(s) {
		if lo >= 0 && (hi >= len(s) || num-v.number(s[lo]) <= v.number(s[hi])-num) {
			if visit(s[lo]) {
				lo--
			} else {
				lo = -1
			}
		} else if visit(s[hi]) {
			hi++
		} else {
			hi = len(s)
		}
	}
}

// Nearest returns up to max values closest to num in number distance,
// leaving out those skip reports true for, ordered by
// distance and then tiebreak. The walk runs on past max while distances
// tie, so which of several equidistant values make the cut is decided by
// tiebreak, not by the side the walk reached first.
func (v View[V]) Nearest(num uint64, max int, skip func(V) bool) []V {
	if max < 1 {
		return nil
	}
	out := make([]V, 0, min(max, len(v.sorted)))
	var last uint64 // distance of the farthest value taken so far
	v.Walk(num, func(e V) bool {
		d := dist(v.number(e), num)
		if len(out) >= max && d > last {
			return false
		}
		if !skip(e) {
			out = append(out, e)
			last = d
		}
		return true
	})
	slices.SortFunc(out, func(a, b V) int {
		if c := cmp.Compare(dist(v.number(a), num), dist(v.number(b), num)); c != 0 {
			return c
		}
		return v.tiebreak(a, b)
	})
	if len(out) > max {
		out = out[:max]
	}
	return out
}

func dist(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}
