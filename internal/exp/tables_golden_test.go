package exp

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// goldenQuickTables pins every registered experiment's `-scale quick`
// table: the sha256 of its text rendering followed by its -json
// rendering, re-pinned when a miss refused for want of an MSHR stopped
// allocating its frames and again when the front door's round-robin
// pointer stopped moving on refused reservations. A change to simulated outcomes re-pins them;
// the benchmark's bench/golden.json keeps its own copy and reports the
// tables that moved as exp.tables_changed.
var goldenQuickTables = map[string]string{
	"ext-hetero": "e4856bcbd814102479980553d4d2bca16126391f971bb8ca0c90a85451bfc1ac",
	"ext-noc":    "6d1f51098af165d65cde45fc085079a8cb0b652913a66f1229d47d755c518d77",
	"ext-skew":   "f960c6e49e6ac6e874b8007c2b7753f61fa1c2f0d4f6bf5d40127e4d9264c738",
	"ext-static": "69424d7fd477bc0ee4fd21707acf7b59ee90e443361e77d9a0e1accb6433241d",
	"faults":     "fc63f1e38dd17e9792aac5460123a1c881cd9ee6aa582669ad7ba58f8b20edec",
	"fig1":       "9e52873ec64c99efbe4e31e890065c0b3cc941240f2c45ad24517e0ddeeb02b8",
	"fig10":      "501babd46aaf390f2348f2daeb2de639258d40ae397c2336b70ca69337cea14e",
	"fig11":      "32e3520dd8fe4ccf8f760a63450a73550aaf98ac8202370def4dbeef138e8f4c",
	"fig12":      "69ee27447345f5fc60110e88832f7dd014d051034cb0cbd07c1121b767c9443e",
	"fig7":       "ae605757684e48b9a6ae584832d56541d6708464468434c5f200f23bc5006c92",
	"pareto":     "a1a6eb7c9db3ee451c52d1591a3401af2d8c646a879a249fc35e3f86051dca2c",
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
