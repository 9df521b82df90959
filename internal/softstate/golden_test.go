package softstate

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gsso/internal/can"
	"gsso/internal/landmark"
)

// The lookup golden suite pins what Lookup returns — which hosts, in
// which order, with which entry fields — and what it reports spending,
// over a seeded harness run through publishes, load updates, removals,
// republishes to a new vector and partial expiry. Fixtures under
// testdata/ were recorded from the sharded store that preceded the
// single soft-state index (run with GSSO_GOLDEN_WRITE=1 to regenerate —
// only from a revision known to be equivalent).
type lookupGolden struct {
	Config    string `json:"config"`
	Lookups   int    `json:"lookups"`
	Returned  int    `json:"returned"`
	Hops      int    `json:"expand_hops"`
	AtBudget  int    `json:"at_budget"`
	Expired   int    `json:"expired_in_store"`
	HostsSHA  string `json:"hosts_sha"`
	CostSHA   string `json:"cost_sha"`
	FirstHost []int  `json:"first_hosts"`
}

type lookupGoldenCell struct {
	name   string
	cfg    func(*Config)
	cutoff bool // the budget is small enough that some walks must hit it
}

// lookupGoldenCells vary the knobs the walk reads: the condense depth
// (where map spots land, hence which owners a walk crosses), the return
// size X (how far the walk gathers) and an expand budget small enough
// that walks stop at the budget cutoff.
var lookupGoldenCells = []lookupGoldenCell{
	{"default", func(c *Config) {}, false},
	{"condense2-x4-budget1", func(c *Config) { c.CondenseDepth, c.MaxReturn, c.ExpandBudget = 2, 4, 1 }, true},
	{"condense4-x16-budget0", func(c *Config) { c.CondenseDepth, c.MaxReturn, c.ExpandBudget = 4, 16, 0 }, true},
	{"condense1-x24-budget2", func(c *Config) { c.CondenseDepth, c.MaxReturn, c.ExpandBudget = 1, 24, 2 }, true},
}

// runLookupGolden drives one cell's scripted workload and summarizes
// every lookup's result and cost.
func runLookupGolden(t *testing.T, cell lookupGoldenCell) lookupGolden {
	cfg := DefaultConfig()
	cell.cfg(&cfg)
	h := newHarness(t, 96, cfg)
	s := h.store
	members := h.overlay.CAN().Members()
	if err := s.PublishAll(func(m *can.Member) []PublishOption {
		return []PublishOption{WithCapacity(float64(m.Host%7 + 1))}
	}); err != nil {
		t.Fatal(err)
	}
	for i, m := range members {
		switch i % 5 {
		case 1:
			s.UpdateLoad(m, float64(i))
		case 2:
			// Republish at a far corner of the space: the member's number
			// moves and its old entries must follow it.
			vec := append(landmark.Vector(nil), s.Vector(m)...)
			for d := range vec {
				vec[d] = h.space.MaxRTT() * float64((i+d)%4) / 4
			}
			if err := s.Publish(m, vec); err != nil {
				t.Fatal(err)
			}
		case 3:
			if i%3 == 0 {
				s.Remove(m)
			}
		}
	}
	// Refresh half the members late, then let the rest run out: lookups
	// must skip the expired half without it having been swept.
	h.env.Clock().Advance(cfg.TTL / 2)
	for i, m := range members {
		if i%2 == 0 {
			if _, ok := s.Number(m); ok {
				if err := s.Publish(m, s.Vector(m)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	h.env.Clock().Advance(cfg.TTL/2 + 1)

	out := lookupGolden{Config: cell.name, Expired: s.TotalEntries()}
	hosts := sha256.New()
	costs := sha256.New()
	var buf [8]byte
	put := func(w interface{ Write([]byte) (int, error) }, v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		_, _ = w.Write(buf[:])
	}
	for i, m := range members {
		vec := landmark.Measure(h.env, m.Host, h.space.Set())
		for _, region := range s.regionsOf(m) {
			entries, cost, err := s.Lookup(region, vec)
			if err != nil {
				t.Fatal(err)
			}
			out.Lookups++
			out.Returned += len(entries)
			out.Hops += cost.ExpandHops
			if cost.ExpandHops == cfg.ExpandBudget {
				out.AtBudget++
			}
			put(hosts, uint64(len(entries)))
			for _, e := range entries {
				put(hosts, uint64(e.Host))
				put(hosts, e.Number)
				put(hosts, math.Float64bits(e.Capacity))
				put(hosts, math.Float64bits(e.Load))
				put(hosts, math.Float64bits(float64(e.Expires)))
			}
			put(costs, uint64(cost.RouteMessages))
			put(costs, uint64(cost.ExpandHops))
			if i < 8 && len(entries) > 0 {
				out.FirstHost = append(out.FirstHost, int(entries[0].Host))
			}
		}
	}
	out.Expired -= len(liveEntries(s))
	out.HostsSHA = hex.EncodeToString(hosts.Sum(nil))
	out.CostSHA = hex.EncodeToString(costs.Sum(nil))
	return out
}

// liveEntries gathers every unexpired entry across all region maps.
func liveEntries(s *Store) []*Entry {
	var out []*Entry
	seen := map[string]bool{}
	for _, m := range s.overlay.CAN().Members() {
		for _, region := range s.regionsOf(m) {
			if seen[region.String()] {
				continue
			}
			seen[region.String()] = true
			out = append(out, s.RegionEntries(region)...)
		}
	}
	return out
}

// TestLookupGolden is the differential gate for the lookup walk: every
// cell must reproduce the recorded fixture exactly.
func TestLookupGolden(t *testing.T) {
	write := os.Getenv("GSSO_GOLDEN_WRITE") == "1"
	for _, cell := range lookupGoldenCells {
		t.Run(cell.name, func(t *testing.T) {
			got := runLookupGolden(t, cell)
			if cell.cutoff && got.AtBudget == 0 {
				t.Fatalf("no lookup spent its whole expand budget: %+v", got)
			}
			path := filepath.Join("testdata", fmt.Sprintf("lookup_golden_%s.json", cell.name))
			if write {
				data, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden fixture (generate with GSSO_GOLDEN_WRITE=1 from a trusted revision): %v", err)
			}
			var want lookupGolden
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("lookup results diverged from the recorded fixture:\n got  %+v\n want %+v", got, want)
			}
		})
	}
}
