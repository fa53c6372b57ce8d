// Package regulate defines the source-regulator contracts the tiles
// program against: Source (the per-tile pacer gating L2 misses into the
// SoC network, and telling the event kernel when its next grant falls
// due), the Heartbeat it receives each epoch, and the optional Probe and
// Watchdog capabilities the SoC discovers by type assertion. Unthrottled is the pass-through implementation.
//
// Which mechanism runs is not decided here: a machine is wired from a
// qospolicy.Pair (DESIGN.md, "Selecting a mechanism"), and every source
// policy in that registry implements Source.
package regulate
