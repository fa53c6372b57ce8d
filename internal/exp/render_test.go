package exp

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestTableJSON(t *testing.T) {
	tb := &Table{Title: "demo", Columns: []string{"x"}}
	tb.Rows = append(tb.Rows, Row{Label: "r", Values: map[string]float64{"x": 1.5}})
	b, err := tb.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Title string `json:"title"`
		Rows  []struct {
			Label  string             `json:"label"`
			Values map[string]float64 `json:"values"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Title != "demo" || len(doc.Rows) != 1 || doc.Rows[0].Values["x"] != 1.5 {
		t.Fatalf("round trip: %+v", doc)
	}
}

// TestFig11TableRenders reduces one synthetic [shared, static] pair: the
// shared cell is the mean of the four VM classes' IPC, the improvement
// its ratio to the static machine's.
func TestFig11TableRenders(t *testing.T) {
	e := NewFig11Experiment([]string{"mcf"})
	tb, err := e.Reduce(e.Spec("quick"), []RunResult{
		{IPC: []float64{0.1, 0.2, 0.3, 0.2}},
		{IPC: []float64{0.18}},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := tb.String()
	for _, want := range []string{"mcf", "0.200", "0.180", "11.1", "Figure 11"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in:\n%s", want, s)
		}
	}
	if _, err := e.Reduce(e.Spec("quick")[:1], []RunResult{{}}); err == nil {
		t.Fatal("an odd fig11 grid reduced")
	}
}

func TestSeriesResultTable(t *testing.T) {
	r := &SeriesResult{
		Classes:      []string{"a", "b"},
		SteadyShares: []float64{0.7, 0.3},
	}
	s := r.Table("demo").String()
	if !strings.Contains(s, "0.700") || !strings.Contains(s, "demo") {
		t.Fatalf("series table:\n%s", s)
	}
}

// TestExtTablesRender reduces synthetic results through each ext-*
// experiment, pinning the row labels and titles the claim tests and
// EXPERIMENTS.md key on.
func TestExtTablesRender(t *testing.T) {
	for _, tc := range []struct {
		name    string
		results []RunResult
		want    []string
	}{
		{"ext-static", []RunResult{{BPC: []float64{20, 11}}, {BPC: []float64{15, 17}}},
			[]string{"static limiter", "PABST", "11.000", "17.000"}},
		{"ext-skew", []RunResult{{MCUtil: []float64{0.8, 0.2}}, {MCUtil: []float64{0.8, 0.5}}},
			[]string{"channel 0 (hot)", "channel 1", "0.500"}},
		{"ext-hetero", []RunResult{{BPC: []float64{2}}, {BPC: []float64{5}}},
			[]string{"even split", "demand feedback", "5.000"}},
		{"ext-noc", []RunResult{{ShareHi: 0.7, TotalBPC: 30}, {ShareHi: 0.69, TotalBPC: 29}, {ShareHi: 0.5, TotalBPC: 4}},
			[]string{"interconnect", "latency-only (paper)", "modeled, 1 B/cyc links", "29.000"}},
	} {
		e := registered(t, tc.name)
		tbl, err := e.Reduce(e.Spec("quick"), tc.results)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		s := tbl.String()
		for _, want := range tc.want {
			if !strings.Contains(s, want) {
				t.Errorf("%s table missing %q:\n%s", tc.name, want, s)
			}
		}
	}
}
