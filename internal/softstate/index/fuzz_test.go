package index

import (
	"cmp"
	"slices"
	"testing"
)

// item is a fuzzed value: key doubles as the tiebreak (unique, like a
// host or an Addr), num is drawn from a narrow range so numbers collide,
// and expires is compared against the script's clock.
type item struct {
	key     uint8
	num     uint64
	expires int
}

func newItems() *Index[uint8, item] {
	return New[uint8](func(v item) uint64 { return v.num },
		func(a, b item) int { return cmp.Compare(a.key, b.key) })
}

// refWalkOrder is the walk order as specified, computed by sorting
// everything: by number distance from num, the side below num first on a
// tie, equal numbers by key ascending at or above num and descending
// below it.
func refWalkOrder(all []item, num uint64) []item {
	side := func(v item) int {
		if v.num < num {
			return 0
		}
		return 1
	}
	out := slices.Clone(all)
	slices.SortFunc(out, func(a, b item) int {
		if c := cmp.Compare(dist(a.num, num), dist(b.num, num)); c != 0 {
			return c
		}
		if c := cmp.Compare(side(a), side(b)); c != 0 {
			return c
		}
		if side(a) == 0 {
			return cmp.Compare(b.key, a.key)
		}
		return cmp.Compare(a.key, b.key)
	})
	return out
}

// lookupVisit is the soft-state store's walk callback in miniature:
// gather live values until want are held, counting an expand hop for
// each new owner (owner = num/4) and closing a side at the first owner
// past the budget.
func lookupVisit(num uint64, want, budget, now int, gathered *[]item) func(item) bool {
	owners := map[uint64]bool{num / 4: true}
	hops := 0
	return func(v item) bool {
		if len(*gathered) >= want {
			return false
		}
		if o := v.num / 4; !owners[o] {
			if hops >= budget {
				return false
			}
			owners[o] = true
			hops++
		}
		if v.expires >= now {
			*gathered = append(*gathered, v)
		}
		return true
	}
}

// refLookup replays lookupVisit over refWalkOrder, closing sides by hand.
func refLookup(all []item, num uint64, want, budget, now int) []item {
	var gathered []item
	visit := lookupVisit(num, want, budget, now, &gathered)
	var closed [2]bool
	for _, v := range refWalkOrder(all, num) {
		s := 1
		if v.num < num {
			s = 0
		}
		if !closed[s] && !visit(v) {
			closed[s] = true
		}
	}
	return gathered
}

// refNearest is the daemon's query answered by sorting every live value
// by (number distance, key) and cutting at max.
func refNearest(all []item, num uint64, max, now int) []item {
	var live []item
	for _, v := range all {
		if v.expires >= now {
			live = append(live, v)
		}
	}
	slices.SortFunc(live, func(a, b item) int {
		if c := cmp.Compare(dist(a.num, num), dist(b.num, num)); c != 0 {
			return c
		}
		return cmp.Compare(a.key, b.key)
	})
	return live[:min(max, len(live))]
}

func walkAll(v View[item]) []item {
	var out []item
	v.Walk(0, func(e item) bool { out = append(out, e); return true })
	return out
}

// FuzzIndex runs a byte script of puts, deletes, sweeps, lookup walks
// and nearest queries against a map-and-sort-everything reference. It
// also holds on to the last view taken and checks that later changes
// never show through it.
func FuzzIndex(f *testing.F) {
	// Equidistant values on both sides of 5: the walk must take 4 first.
	f.Add([]byte{0, 1, 4, 9, 0, 2, 6, 9, 3, 5, 0, 2})
	f.Add([]byte{0, 1, 5, 9, 0, 2, 5, 9, 0, 3, 6, 9, 3, 5, 4, 1, 4, 5, 2, 0})
	f.Add([]byte{0, 1, 4, 1, 0, 2, 6, 200, 0, 3, 4, 1, 2, 50, 0, 0, 4, 5, 1, 0, 3, 5, 7, 2})
	f.Add([]byte{0, 9, 3, 3, 0, 8, 3, 3, 0, 7, 5, 3, 0, 6, 5, 3, 4, 4, 0, 0, 1, 8, 0, 0, 4, 4, 5, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		x := newItems()
		ref := map[uint8]item{}
		dirty := false
		now := 0
		var held View[item]
		var heldWant []item
		for len(script) >= 4 {
			op, a, b, c := script[0]%5, script[1], script[2], int(script[3])
			script = script[4:]
			switch op {
			case 0: // put
				v := item{key: a % 32, num: uint64(b % 16), expires: c}
				x.Put(v.key, v)
				ref[v.key] = v
				dirty = true
			case 1: // delete
				_, gotOK := x.Delete(a % 32)
				_, wantOK := ref[a%32]
				if gotOK != wantOK {
					t.Fatalf("Delete(%d) found=%v, reference %v", a%32, gotOK, wantOK)
				}
				delete(ref, a%32)
				dirty = dirty || wantOK
			case 2: // advance the clock and sweep
				now += int(a)
				n := x.DeleteWhere(func(v item) bool { return v.expires < now })
				want := 0
				for k, v := range ref {
					if v.expires < now {
						delete(ref, k)
						want++
					}
				}
				if n != want {
					t.Fatalf("DeleteWhere dropped %d, reference %d", n, want)
				}
				dirty = dirty || want > 0
			case 3: // soft-state lookup walk; the view keeps expired values
				num := uint64(a % 20)
				want, budget := int(b%8)+1, c%3
				held = x.View(nil)
				dirty = false
				var got []item
				held.Walk(num, lookupVisit(num, want, budget, now, &got))
				all := valuesOf(ref)
				if exp := refLookup(all, num, want, budget, now); !slices.Equal(got, exp) {
					t.Fatalf("walk from %d (want %d, budget %d):\n got  %v\n want %v", num, want, budget, got, exp)
				}
				heldWant = refWalkOrder(all, 0)
			case 4: // daemon query; a rebuild deletes expired values
				num := uint64(a % 20)
				max := int(b%6) + 1
				expired := func(v item) bool { return v.expires < now }
				held = x.View(expired)
				if dirty {
					for k, v := range ref {
						if v.expires < now {
							delete(ref, k)
						}
					}
					dirty = false
				}
				if x.Len() != len(ref) {
					t.Fatalf("index holds %d values after a view, reference %d", x.Len(), len(ref))
				}
				got := held.Nearest(num, max, expired)
				all := valuesOf(ref)
				if exp := refNearest(all, num, max, now); !slices.Equal(got, exp) {
					t.Fatalf("nearest %d to %d:\n got  %v\n want %v", max, num, got, exp)
				}
				heldWant = refWalkOrder(all, 0)
			}
			if x.Len() != len(ref) {
				t.Fatalf("index holds %d values, reference %d", x.Len(), len(ref))
			}
			if got := walkAll(held); !slices.Equal(got, heldWant) {
				t.Fatalf("a held view changed under later writes:\n got  %v\n want %v", got, heldWant)
			}
		}
	})
}

func valuesOf(m map[uint8]item) []item {
	out := make([]item, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}
