package experiment

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"gsso/internal/metstream"
)

// TestExtScaleStreamsDecodableMetrics drives an ext-scale run against a
// temp spill dir and then audits the streams it left behind: every record
// must decode, timestamps must be monotone, and the aggregates recomputed
// from disk must match the values the experiment put in its table. The
// in-RAM-vs-streamed equivalence itself is asserted inside the run (the
// cell's shadow totals), so a passing run already proves the two paths
// agree; this test proves an outside reader sees the same numbers.
func TestExtScaleStreamsDecodableMetrics(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("GSSO_SCALE_DIR", dir)
	t.Setenv("GSSO_SCALE_N", "512")

	tables, err := RunExtScale(Quick(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 2 {
		t.Fatalf("expected 1 table with 2 rows, got %+v", tables)
	}

	for ri, kind := range []TopoKind{TSKLarge, TSKSmall} {
		path := filepath.Join(dir, fmt.Sprintf("ext-scale_%s_%d.metrics", kind, 512))
		r, err := metstream.Open(path)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		records, lastT := 0, uint64(0)
		for {
			rec, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s: record %d: %v", kind, records, err)
			}
			if rec.T < lastT {
				t.Fatalf("%s: timestamp regression %d after %d", kind, rec.T, lastT)
			}
			lastT = rec.T
			if rec.Key != "hybrid" && rec.Key != "ers" && rec.Key != "ers10x" {
				t.Fatalf("%s: unexpected series %q", kind, rec.Key)
			}
			records++
		}
		r.Close()
		if records == 0 {
			t.Fatalf("%s: stream is empty", kind)
		}

		aggs, err := metstream.Aggregate(path)
		if err != nil {
			t.Fatal(err)
		}
		row := tables[0].Rows[ri]
		// Columns: nodes, preset, stubs, lmk+rtt, ERS, ERS@10x.
		if row[1] != string(kind) {
			t.Fatalf("row %d preset = %q, want %q", ri, row[1], kind)
		}
		for col, key := range map[int]string{3: "hybrid", 4: "ers", 5: "ers10x"} {
			want := fmt.Sprintf("%.3f", aggs[key].Mean())
			if row[col] != want {
				t.Fatalf("%s: table %s = %s, stream aggregate says %s", kind, key, row[col], want)
			}
		}
	}
}

// TestExtScaleRejectsBadSweepOverride pins the env-override parsing.
func TestExtScaleRejectsBadSweepOverride(t *testing.T) {
	t.Setenv("GSSO_SCALE_N", "512,banana")
	if _, err := RunExtScale(Quick(1)); err == nil {
		t.Fatal("bad GSSO_SCALE_N accepted")
	}
	t.Setenv("GSSO_SCALE_N", "")
	sc := Quick(1)
	sc.ScaleSweep = nil
	if _, err := RunExtScale(sc); err == nil {
		t.Fatal("empty sweep accepted")
	}
}

// TestExtScaleShape runs the quick ext-scale sweep and asserts the claims
// its rows support: each preset's sweep points generate strictly growing
// topologies, hybrid stretch is below ERS at equal budget in every row,
// 10x the ERS budget lowers ERS stretch, and the printed ERS÷hybrid range
// is the one the rows give.
func TestExtScaleShape(t *testing.T) {
	t.Setenv("GSSO_SCALE_N", "")
	tables, err := RunExtScale(Quick(1))
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	// Columns: nodes, preset, stubs, lmk+rtt, ERS, ERS@10x.
	lastNodes := map[string]float64{}
	lo, hi := math.Inf(1), 0.0
	for r, row := range tb.Rows {
		nodes, hybrid, ers, ersBig := cell(t, tb, r, 0), cell(t, tb, r, 3), cell(t, tb, r, 4), cell(t, tb, r, 5)
		if prev, ok := lastNodes[row[1]]; ok && nodes <= prev {
			t.Errorf("%s: sweep point generated %v nodes after %v; want strictly more", row[1], nodes, prev)
		}
		lastNodes[row[1]] = nodes
		if hybrid >= ers {
			t.Errorf("row %d (%v %s): hybrid stretch %v not below ERS %v", r, nodes, row[1], hybrid, ers)
		}
		if ersBig >= ers {
			t.Errorf("row %d (%v %s): ERS@10x stretch %v not below ERS %v", r, nodes, row[1], ersBig, ers)
		}
		lo, hi = math.Min(lo, ers/hybrid), math.Max(hi, ers/hybrid)
	}
	if len(lastNodes) != 2 || len(tb.Rows) != 2*len(Quick(1).ScaleSweep) {
		t.Fatalf("got %d rows over presets %v", len(tb.Rows), lastNodes)
	}
	var gotLo, gotHi float64
	found := false
	for _, n := range tb.Notes {
		if _, err := fmt.Sscanf(n, "hybrid stretch is %fx-%fx below ERS", &gotLo, &gotHi); err == nil {
			found = true
			break
		}
	}
	// The note is computed from unrounded means; the rows carry 3 decimals.
	if !found || math.Abs(gotLo-lo) > 0.06 || math.Abs(gotHi-hi) > 0.06 {
		t.Fatalf("notes %q do not state the rows' ERS/hybrid range %.2f-%.2f", tb.Notes, lo, hi)
	}
}

// TestScaleTrendNotesNameBrokenRows: a row where hybrid does not beat
// ERS is named instead of claiming the trend.
func TestScaleTrendNotesNameBrokenRows(t *testing.T) {
	notes := scaleTrendNotes([]ScaleCell{
		{Kind: TSKLarge, Nodes: 1000, Hybrid: 2, ERS: 10, ERSBig: 3},
		{Kind: TSKSmall, Nodes: 2000, Hybrid: 12, ERS: 11, ERSBig: 4},
	})
	want := []string{
		"trend broken: hybrid stretch is not below ERS at equal budget in 2000 tsk-small (hybrid 12.000, ERS 11.000)",
		"ERS at 10x the budget undercuts hybrid in 1 of 2 rows: 2000 tsk-small",
	}
	if !reflect.DeepEqual(notes, want) {
		t.Fatalf("notes = %q, want %q", notes, want)
	}
}
