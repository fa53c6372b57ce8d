// Package cpu models the out-of-order, non-speculative cores of the
// simulated SoC, following the paper's methodology (Section IV):
// dependencies and structural limits (a bounded instruction window and a
// bounded number of outstanding misses) are enforced exactly, while the
// in-core pipeline is abstracted into per-op compute gaps. This yields
// high fidelity on memory-bound behavior, which is what every PABST
// experiment measures.
//
// The core pulls work from a workload.Generator, tracks dependencies
// through a windowed reorder buffer of memory ops, and issues ready ops to
// a MemPort (the tile's private cache, provided by the soc layer).
//
// Main entry points: New builds a core around a generator and a port;
// Core.Tick advances it one cycle; Core.NextEventAt and Core.FastForward
// let the event kernel skip a core between its events and replay the
// skipped cycles. A core sleeping between bursts only counts them. A
// core blocked on a full MSHR table waits for the response that frees an
// entry: its refused retry is a pure probe, so its window refill and gap
// expiries are no events, and FastForward replays them.
package cpu
