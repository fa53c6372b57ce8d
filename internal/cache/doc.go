// Package cache implements the set-associative cache models used for the
// private L2s and the shared, sliced L3 of the simulated SoC.
//
// The L3 supports way-based capacity partitioning equivalent to Intel CAT:
// each QoS class may be restricted to an exclusive, contiguous range of
// ways, which is how every PABST experiment isolates classes in the shared
// cache (Section II-B / IV-A of the paper).
//
// Accesses are modeled atomically: a miss immediately allocates the line
// and reports the victim, and the caller is responsible for modeling the
// fill latency and for turning dirty victims into writeback traffic. This
// is the standard simplification for cycle-approximate cache models; the
// in-flight window it elides is small relative to the epoch and windowing
// timescales PABST operates on.
//
// Host layout: a line is a uint32 in Cache.lo (line-number bits 31–0)
// and a uint16 in Cache.hi (valid | dirty | class | recency rank |
// line-number bits 36–32) — 6 B a line, each array an exact allocation
// size class. A lookup compares lo first and reads hi only on a match,
// so a miss reads only the set's lo words; the victim scan, aging and
// dirtying touch only hi. A set's valid ways rank 0..n-1 (0 most
// recent); a hit or fill moves its way to rank 0 and ages the younger
// ways by one, and the victim is the partition's first invalid way, else
// its highest rank. Lines are never invalidated outside restore, so the
// ranks are what the checkpoint stores, beside one 64-bit image word per
// valid line whose format predates this layout (state.go). The line
// number has mem.AddrBits-LineShift = 37 bits: the tile drops address
// bits above the machine's width before they reach a cache, a restore
// refuses them, and a lookup panics on them rather than alias a
// resident line. Per-class valid-line counts are kept as fills and
// evictions happen, so OccupancyInto is a copy. The line arrays are most
// of a simulated machine's heap and Cache.Access its hottest function;
// DESIGN.md "Host data layout" has the bit layout and the measurements,
// reference_test.go the struct-per-line, timestamp-LRU cache this
// replaced, kept as the differential oracle.
//
// Main entry points: New builds a cache from a Config; Cache.Access is
// the hit/miss/victim state machine; Cache.Partition installs a CAT way
// range for a class. The soc package owns all instances and drives them
// from the tile and slice tick paths.
package cache
