package exp

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// goldenQuickTables pins every registered experiment's `-scale quick`
// table: the sha256 of its text rendering followed by its -json
// rendering. The values were taken from the build that still reduced
// through typed result structs (IsolationResult, FaultsResult,
// Fig11Cell), so they hold each Reduce to writing the same rows; a
// change to simulated outcomes re-pins them together with
// bench/golden.json.
var goldenQuickTables = map[string]string{
	"ext-hetero": "4cb8f76ed0a70b64fe4ca0fce0433534a3d633d950e7c3a96278b1f8e5516ba5",
	"ext-noc":    "19d184893015f591b435b30ec745718e267ec4144c4fa9b0be8d4b51c1043e6d",
	"ext-skew":   "3fae05df90abc0c65afd48bb5353f384c6c5c9d624f20e7550fd11ccf1db5372",
	"ext-static": "ea8a0d76010b1016f47cef446cf975ab1a20c713787fc670bec37f04584e5201",
	"faults":     "e881a0dc22990893020770c01fa8c846c1928a883d4bbb4085d622b0c9a081b1",
	"fig1":       "5ebffa19ba21683d5ab995c62db32b717d473e4ec0b26ac3f6cf84ac3df61062",
	"fig10":      "53adeda25d5d8ac999f4c151cf1f1f4bbdd60b5a4240dd469bd996343bd7232a",
	"fig11":      "ee7f158a7db24aec9c5192f16059c134c4a290e13089db753c98f96267e4d599",
	"fig12":      "a62ef73717f94548ff6e0323f01f3c08a3e1815de71976c1c69937fdb4c6c956",
	"fig5":       "338384a5573c8d940099492ffdd4d415d224f627370374b44b29fdda7052df60",
	"fig7":       "0f1e3dec19cfd59d7b1841fe0541578ed0d09827adadf2ca742e8e29e3176ae0",
	"pareto":     "e546680c713f7c0d344b5676792fc73649dd44db45f74efbe191c36711cc3b6f",
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
