package exp

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// goldenQuickTables pins every registered experiment's `-scale quick`
// table: the sha256 of its text rendering followed by its -json
// rendering, re-pinned when a miss refused for want of an MSHR stopped
// allocating its frames. A change to simulated outcomes re-pins them;
// the benchmark's bench/golden.json keeps its own copy and reports the
// tables that moved as exp.tables_changed.
var goldenQuickTables = map[string]string{
	"ext-hetero": "ee83d87d70b5fb59ba16a8213b0e741e635af7777558f42277e3b17f8ac3278f",
	"ext-noc":    "dcdd435685ad3b837f1e93790ba139c3bca26e00a9f0dfb8e8a00f8b1556f145",
	"ext-skew":   "d802d92af1c2ee8e417158b51708ec3ce4401712730364f80a16195e35134824",
	"ext-static": "2ac82bedff7beb0a43a12a6e4829e5ae1e6573aa9962eb30ba92910c39092d7e",
	"faults":     "3ba5380d632c140b1692f64b74c5ffd1cd5614f39c490ef13bcc7ed4fc48d6b8",
	"fig1":       "f4a470dc9fef6b3fe4cae44e84e00082c6f61028cc8df3dbad0a7c7f528d05f3",
	"fig10":      "60641c8a26dd06f8e8a2e85d226643bc71bb3ae3b2ad49391c78453fe2f150d8",
	"fig11":      "f2b533b069e75d6e8e1cd1c169bb7903311dc9277b25b5de03de4347aca7a2a7",
	"fig12":      "6521a88925f01ec375296c4ff3c67c812545123376a859e5efc080078314c112",
	"fig5":       "1c070cf0d6c59bb5cba13f0d20eec708c7cdefe64876f6e38d86697e944a1549",
	"fig7":       "95493f88d6cc7a3803b6f6d7ea094b12585aeaeb4b0f34399d838a425f99d319",
	"pareto":     "e4a8257bf8bd06b5e7aac835c8dc3988f2f7d2b093f4897e4f7a9a63a8c43cde",
}

// TestQuickTablesPinned runs the whole registry at Quick() against the
// shared claim cache and compares each table with its pin.
func TestQuickTablesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("every registered experiment at quick scale")
	}
	seen := map[string]bool{}
	for _, e := range Experiments() {
		seen[e.Name()] = true
		tbl, _, _ := runQuick(t, e)
		doc, err := tbl.JSON()
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%x", sha256.Sum256(append([]byte(tbl.String()), doc...)))
		if want, ok := goldenQuickTables[e.Name()]; !ok {
			t.Errorf("%s has no pinned table hash; add %q: %q", e.Name(), e.Name(), got)
		} else if got != want {
			t.Errorf("%s table changed: hash %s, pinned %s\n%s", e.Name(), got, want, tbl)
		}
	}
	for name := range goldenQuickTables {
		if !seen[name] {
			t.Errorf("pinned experiment %q is no longer registered", name)
		}
	}
}
