package qospolicy

import (
	"fmt"
	"strings"
)

// Pair selects a mechanism: one source policy and one target policy, by
// registry name. It is the only representation of "which mechanism" in
// the repository (DESIGN.md, "Selecting a mechanism"). An empty half
// selects nothing for that side, which is how an override layer leaves
// the side to a less specific layer (see Over); the pair a machine is
// wired with has both halves set.
type Pair struct {
	Source, Target string
}

// The five presets: the paper's comparison matrix (which half of PABST
// is on) plus the static-limiter baseline. Each has a legacy name that
// ParsePair accepts and String prints.
var (
	None         = Pair{"none", "fcfs"}
	SourceOnly   = Pair{"pabst", "fcfs"}
	TargetOnly   = Pair{"none", "pabst"}
	PABST        = Pair{"pabst", "pabst"}
	StaticSource = Pair{"static", "fcfs"}
)

// presets is the legacy-name table, in presentation order.
var presets = []struct {
	name, alias string
	pair        Pair
}{
	{"none", "none", None},
	{"source-only", "source", SourceOnly},
	{"target-only", "target", TargetOnly},
	{"pabst", "both", PABST},
	{"static-source", "static", StaticSource},
}

// Presets lists the five preset pairs in presentation order.
func Presets() []Pair {
	out := make([]Pair, len(presets))
	for i, p := range presets {
		out[i] = p.pair
	}
	return out
}

// ParsePair is the one parser of a mechanism selector. It accepts
// "source+target" with either half empty ("+dpq", "bankreg+": select
// one side only), the empty string (select nothing), and the five
// legacy names with their short forms (none, source-only/source,
// target-only/target, pabst/both, static-source/static) as spellings of
// their preset pairs. Non-empty halves must be registered.
func ParsePair(s string) (Pair, error) {
	if s == "" {
		return Pair{}, nil
	}
	for _, p := range presets {
		if s == p.name || s == p.alias {
			return p.pair, nil
		}
	}
	source, target, ok := strings.Cut(s, "+")
	if !ok {
		return Pair{}, fmt.Errorf("qospolicy: selector %q is neither a preset (%s) nor source+target (e.g. %q)",
			s, presetNames(), "bankreg+dpq")
	}
	if source != "" && !ValidSource(source) {
		return Pair{}, fmt.Errorf("qospolicy: unknown source policy %q (have %v)", source, SourceNames())
	}
	if target != "" && !ValidTarget(target) {
		return Pair{}, fmt.Errorf("qospolicy: unknown target policy %q (have %v)", target, TargetNames())
	}
	return Pair{source, target}, nil
}

func presetNames() string {
	names := make([]string, len(presets))
	for i, p := range presets {
		names[i] = p.name
	}
	return strings.Join(names, ", ")
}

// String prints the selector ParsePair reads back to the same pair: the
// legacy name for a preset (figure labels, spec fingerprints and
// checkpoint metadata were written with those names), "" for the empty
// pair, "source+target" otherwise.
func (p Pair) String() string {
	if p == (Pair{}) {
		return ""
	}
	for _, pre := range presets {
		if p == pre.pair {
			return pre.name
		}
	}
	return p.Source + "+" + p.Target
}

// Over is the one merge of selection layers: p's non-empty halves win
// and its empty halves fall through to base. Layers stack most specific
// first — a spec's own pair, over the process-wide -policy override,
// over the spec's mode or the bench default — so the most specific
// layer that names a side decides it.
func (p Pair) Over(base Pair) Pair {
	if p.Source == "" {
		p.Source = base.Source
	}
	if p.Target == "" {
		p.Target = base.Target
	}
	return p
}
