// Command pabsttrace streams the simulator's epoch-scoped trace events —
// governor registers (M, δM, period), arbiter state (queue depth,
// deadline slack, priority inversions), DRAM service deltas, and the
// per-class epoch summary — through the observability sinks. It is the
// raw material behind Figure 4/5-style plots, and because events are
// emitted from the epoch hook in a fixed order the output is
// byte-identical run to run.
//
// Usage:
//
//	pabsttrace [-epochs n] [-epoch cycles] [-whi w] [-wlo w]
//	           [-policy src+tgt] [-format jsonl|csv]
//	           [-events epoch,governor,...] [-tile n] > trace
//
// -policy swaps in a QoS policy pair from the plugin registry (see
// pabstsim -list-policies); probe-backed mechanisms emit governor events
// with their own register semantics.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pabst"
)

// options are pabsttrace's flags. It has no warmup, so it takes no
// checkpoint store.
type options struct {
	epochs, epoch, wHi, wLo uint64
	format, events, policy  string
	tile                    int
}

// register defines every flag on fs, landing in o. -epochs is unsigned
// so a negative count is a parse error, not a run of about 2^64 cycles.
func (o *options) register(fs *flag.FlagSet) {
	fs.Uint64Var(&o.epochs, "epochs", 200, "epochs to trace")
	fs.Uint64Var(&o.epoch, "epoch", 20000, "epoch length in cycles")
	fs.Uint64Var(&o.wHi, "whi", 7, "high class weight")
	fs.Uint64Var(&o.wLo, "wlo", 3, "low class weight")
	fs.StringVar(&o.format, "format", "csv", "output format: jsonl or csv")
	fs.StringVar(&o.events, "events", "", "comma-separated event kinds to keep (default all): epoch,governor,arbiter,dram,fault,kernel")
	fs.IntVar(&o.tile, "tile", -1, "restrict governor events to one tile (-1 = all)")
	fs.StringVar(&o.policy, "policy", "",
		"QoS mechanism `src+tgt` (or a preset name) replacing full PABST; an empty half keeps that side (DESIGN.md, \"Selecting a mechanism\")")
}

func main() {
	var o options
	o.register(flag.CommandLine)
	flag.Parse()

	over, err := pabst.ParseMode(o.policy)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pabsttrace: %v\n", err)
		os.Exit(2)
	}

	var sink pabst.Sink
	switch o.format {
	case "jsonl":
		sink = pabst.NewJSONLSink(os.Stdout)
	case "csv":
		sink = pabst.NewCSVSink(os.Stdout)
	default:
		fmt.Fprintf(os.Stderr, "pabsttrace: unknown -format %q (want jsonl or csv)\n", o.format)
		os.Exit(2)
	}
	cfg := pabst.Default32Config()
	cfg.PABST.EpochCycles = o.epoch
	cfg.BWWindow = o.epoch
	if keep, err := buildFilter(o.events, o.tile, cfg.NumTiles()); err != nil {
		fmt.Fprintf(os.Stderr, "pabsttrace: %v\n", err)
		os.Exit(2)
	} else if keep != nil {
		sink = pabst.NewFilterSink(sink, keep)
	}
	observer := pabst.NewObserver(0, sink)

	b := pabst.NewBuilder(cfg, pabst.ModePABST,
		pabst.WithPolicy(over.Source, over.Target), pabst.WithObserver(observer))
	hi := b.AddClass("hi", o.wHi, cfg.L3Ways/2)
	lo := b.AddClass("lo", o.wLo, cfg.L3Ways/2)
	for i := 0; i < 16; i++ {
		b.Attach(i, hi, pabst.Stream("hi", pabst.TileRegion(i), 128, false))
		b.Attach(16+i, lo, pabst.Stream("lo", pabst.TileRegion(16+i), 128, false))
	}
	sys, err := b.Build()
	if err != nil {
		fmt.Fprintf(os.Stderr, "pabsttrace: %v\n", err)
		os.Exit(1)
	}
	defer sys.Close()

	sys.Run(o.epochs * o.epoch)
	if err := observer.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "pabsttrace: %v\n", err)
		os.Exit(1)
	}
}

// buildFilter composes the -events and -tile restrictions into one sink
// predicate; nil means keep everything. A tile the traced machine of
// tiles tiles does not have is an error, as is any negative tile but -1.
func buildFilter(events string, tile, tiles int) (func(*pabst.Event) bool, error) {
	if tile < -1 || tile >= tiles {
		return nil, fmt.Errorf("-tile %d: the traced machine has tiles 0..%d (-1 = all)", tile, tiles-1)
	}
	var kinds map[pabst.EventKind]bool
	if events != "" {
		kinds = make(map[pabst.EventKind]bool)
		for _, name := range strings.Split(events, ",") {
			k, ok := pabst.ParseEventKind(strings.TrimSpace(name))
			if !ok {
				return nil, fmt.Errorf("unknown event kind %q", name)
			}
			kinds[k] = true
		}
	}
	if kinds == nil && tile < 0 {
		return nil, nil
	}
	return func(e *pabst.Event) bool {
		if kinds != nil && !kinds[e.Kind] {
			return false
		}
		if tile >= 0 && e.Kind == pabst.KindGovernor && e.Unit != tile {
			return false
		}
		return true
	}, nil
}
