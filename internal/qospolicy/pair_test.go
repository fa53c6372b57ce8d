package qospolicy

import "testing"

func TestParsePair(t *testing.T) {
	cases := []struct {
		in   string
		want Pair
		ok   bool
	}{
		{"", Pair{}, true}, // selects nothing
		{"bankreg+dpq", Pair{"bankreg", "dpq"}, true},
		{"+dpq", Pair{"", "dpq"}, true},         // target half only
		{"bankreg+", Pair{"bankreg", ""}, true}, // source half only
		{"pabst+pabst", PABST, true},
		{"pabst", PABST, true}, // legacy names spell their pairs
		{"both", PABST, true},
		{"none", None, true},
		{"source-only", SourceOnly, true},
		{"source", SourceOnly, true},
		{"target-only", TargetOnly, true},
		{"target", TargetOnly, true},
		{"static-source", StaticSource, true},
		{"static", StaticSource, true},
		{"bankreg", Pair{}, false},   // neither a preset nor a pair
		{"nope+fcfs", Pair{}, false}, // unknown source
		{"pabst+nope", Pair{}, false},
		{"fcfs+pabst", Pair{}, false}, // fcfs is a target, not a source
		{"pabst+pabst+pabst", Pair{}, false},
	}
	for _, c := range cases {
		got, err := ParsePair(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParsePair(%q): error %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if got != c.want {
			t.Errorf("ParsePair(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

// TestPresetsAndOver pins the five legacy names to their pairs (which
// half of PABST each switches on), that String prints exactly those
// names, and the per-half layering rule.
func TestPresetsAndOver(t *testing.T) {
	names := []string{"none", "source-only", "target-only", "pabst", "static-source"}
	pairs := []Pair{
		{"none", "fcfs"}, {"pabst", "fcfs"}, {"none", "pabst"}, {"pabst", "pabst"}, {"static", "fcfs"},
	}
	presets := Presets()
	if len(presets) != len(names) {
		t.Fatalf("Presets() has %d entries, want %d", len(presets), len(names))
	}
	for i, p := range presets {
		if p != pairs[i] || p.String() != names[i] {
			t.Errorf("preset %d = %+v %q, want %+v %q", i, p, p, pairs[i], names[i])
		}
	}
	if s := (Pair{"bankreg", "dpq"}).String(); s != "bankreg+dpq" {
		t.Errorf("String = %q", s)
	}
	if s := (Pair{"", "dpq"}).String(); s != "+dpq" {
		t.Errorf("half-empty String = %q", s)
	}
	// The more specific layer wins each half it names.
	if got := (Pair{"bankreg", ""}).Over(PABST); got != (Pair{"bankreg", "pabst"}) {
		t.Errorf("bankreg+ over pabst = %v", got)
	}
	if got := (Pair{"", "dpq"}).Over(None); got != (Pair{"none", "dpq"}) {
		t.Errorf("+dpq over none = %v", got)
	}
	if got := (Pair{}).Over(Pair{"", "dpq"}).Over(SourceOnly); got != (Pair{"pabst", "dpq"}) {
		t.Errorf("three layers = %v", got)
	}
}

// FuzzParsePair: the parser never panics, an accepted selector names
// only registered policies (or leaves a half empty), and String prints
// a selector that parses back to the same pair.
func FuzzParsePair(f *testing.F) {
	for _, p := range presets {
		f.Add(p.name)
		f.Add(p.alias)
		f.Add(p.pair.Source + "+" + p.pair.Target)
	}
	for _, s := range []string{"", "+", "+dpq", "bankreg+", "lmsar+fcfs", "none+dpq", "bankreg", "a+b+c", "pabst+\x00"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePair(s)
		if err != nil {
			if p != (Pair{}) {
				t.Fatalf("ParsePair(%q) failed with a non-empty pair %+v", s, p)
			}
			return
		}
		if p.Source != "" && !ValidSource(p.Source) {
			t.Fatalf("ParsePair(%q) accepted unregistered source %q", s, p.Source)
		}
		if p.Target != "" && !ValidTarget(p.Target) {
			t.Fatalf("ParsePair(%q) accepted unregistered target %q", s, p.Target)
		}
		back, err := ParsePair(p.String())
		if err != nil || back != p {
			t.Fatalf("ParsePair(%q) = %+v, String %q parses back to %+v, %v", s, p, p.String(), back, err)
		}
	})
}
