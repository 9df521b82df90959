package wire

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"time"
)

// referenceNearest is the scan-and-sort query a node served before its
// records moved onto the number-ordered index, kept as the differential
// reference: drop every expired record from the store, sort all live
// ones by landmark-number distance then Addr, return the first max.
func referenceNearest(records map[string]Record, number uint64, max int, now time.Time) []Record {
	live := make([]Record, 0, len(records))
	for addr, rec := range records {
		if rec.Expired(now) {
			delete(records, addr)
			continue
		}
		live = append(live, rec)
	}
	absDiff := func(a, b uint64) uint64 {
		if a > b {
			return a - b
		}
		return b - a
	}
	sort.Slice(live, func(i, j int) bool {
		di, dj := absDiff(live[i].Number, number), absDiff(live[j].Number, number)
		if di != dj {
			return di < dj
		}
		return live[i].Addr < live[j].Addr
	})
	if len(live) > max {
		live = live[:max]
	}
	return live
}

// TestNearestMatchesReference drives a node's dispatch and the reference
// through the same seeded script of stores, batch stores, removes and
// queries. Numbers come from a narrow range, so many records share a
// number and many queries find equal distances on both sides; a quarter
// of the records are stored already expired, so walks cross dead records.
func TestNearestMatchesReference(t *testing.T) {
	node, err := NewNode("127.0.0.1:0", testConfig([]string{"stub"}), nil, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	rng := rand.New(rand.NewPCG(7, 11))
	ref := map[string]Record{}
	live := time.Now().Add(time.Hour).UnixMilli()
	dead := time.Now().Add(-time.Hour).UnixMilli()
	record := func() Record {
		exp := live
		if rng.IntN(4) == 0 {
			exp = dead
		}
		return Record{
			Addr:             fmt.Sprintf("10.0.%d.%d:4000", rng.IntN(4), rng.IntN(64)),
			Number:           uint64(rng.IntN(48)) * 2,
			Vector:           []float64{rng.Float64()},
			ExpiresUnixMilli: exp,
		}
	}
	queries := 0
	var reply []Record
	for round := 0; round < 300; round++ {
		switch op := rng.IntN(10); {
		case op < 4:
			rec := record()
			node.dispatch(Message{Type: MsgStore, Record: &rec}, nil)
			ref[rec.Addr] = rec
		case op < 6:
			batch := make([]Record, 1+rng.IntN(20))
			for i := range batch {
				batch[i] = record()
				ref[batch[i].Addr] = batch[i]
			}
			node.dispatch(Message{Type: MsgPublishBatch, Records: batch}, nil)
		case op < 7:
			addr := fmt.Sprintf("10.0.%d.%d:4000", rng.IntN(4), rng.IntN(64))
			node.dispatch(Message{Type: MsgRemove, Addr: addr}, nil)
			delete(ref, addr)
		default:
			// Odd query numbers sit exactly between two even record
			// numbers, so the walk meets ties across both sides.
			number := uint64(rng.IntN(100))
			max := []int{1, 2, 3, 8, 24, 500}[rng.IntN(6)]
			resp := node.dispatch(Message{Type: MsgQuery, Number: number, Max: max}, &reply)
			want := referenceNearest(ref, number, max, time.Now())
			if resp.Type != MsgRecords || !slices.EqualFunc(resp.Records, want, func(a, b Record) bool {
				return a.Addr == b.Addr && a.Number == b.Number && a.ExpiresUnixMilli == b.ExpiresUnixMilli
			}) {
				t.Fatalf("round %d: query %d max %d\n got  %v\n want %v", round, number, max, resp.Records, want)
			}
			if got := node.RecordCount(); got != len(ref) {
				t.Fatalf("round %d: node holds %d records after a query, reference %d", round, got, len(ref))
			}
			queries++
		}
	}
	if queries < 50 {
		t.Fatalf("only %d queries ran", queries)
	}
}
