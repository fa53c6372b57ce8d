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
	"pabst/internal/cliflags"
)

func main() {
	epochs := flag.Int("epochs", 200, "epochs to trace")
	epoch := flag.Uint64("epoch", 20000, "epoch length in cycles")
	wHi := flag.Uint64("whi", 7, "high class weight")
	wLo := flag.Uint64("wlo", 3, "low class weight")
	format := flag.String("format", "csv", "output format: jsonl or csv")
	events := flag.String("events", "", "comma-separated event kinds to keep (default all): epoch,governor,arbiter,dram,fault,kernel")
	tile := flag.Int("tile", -1, "restrict governor events to one tile (-1 = all)")
	common := cliflags.Register(flag.CommandLine)
	flag.Parse()

	over, err := common.Validate()
	if err != nil {
		fmt.Fprintf(os.Stderr, "pabsttrace: %v\n", err)
		os.Exit(2)
	}

	var sink pabst.Sink
	switch *format {
	case "jsonl":
		sink = pabst.NewJSONLSink(os.Stdout)
	case "csv":
		sink = pabst.NewCSVSink(os.Stdout)
	default:
		fmt.Fprintf(os.Stderr, "pabsttrace: unknown -format %q (want jsonl or csv)\n", *format)
		os.Exit(2)
	}
	if keep, err := buildFilter(*events, *tile); err != nil {
		fmt.Fprintf(os.Stderr, "pabsttrace: %v\n", err)
		os.Exit(2)
	} else if keep != nil {
		sink = pabst.NewFilterSink(sink, keep)
	}
	observer := pabst.NewObserver(0, sink)

	cfg := pabst.Default32Config()
	cfg.PABST.EpochCycles = *epoch
	cfg.BWWindow = *epoch

	b := pabst.NewBuilder(cfg, pabst.ModePABST,
		pabst.WithPolicy(over.Source, over.Target), pabst.WithObserver(observer))
	hi := b.AddClass("hi", *wHi, cfg.L3Ways/2)
	lo := b.AddClass("lo", *wLo, cfg.L3Ways/2)
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

	sys.Run(uint64(*epochs) * *epoch)
	if err := observer.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "pabsttrace: %v\n", err)
		os.Exit(1)
	}
}

// buildFilter composes the -events and -tile restrictions into one sink
// predicate; nil means keep everything.
func buildFilter(events string, tile int) (func(*pabst.Event) bool, error) {
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
