// Package mem defines the vocabulary shared by every level of the memory
// hierarchy: physical addresses, cache-line geometry, QoS class
// identifiers, and the packets that travel between caches and memory
// controllers.
//
// The types here are intentionally free of behavior so that higher layers
// (caches, the NoC, DRAM, and the PABST regulators) can exchange requests
// without import cycles.
//
// Main entry points: Addr and the line-geometry helpers, ClassID (the
// paper's QoS class, Section II-A), and Packet, the unit of transfer
// whose fields every component reads but only its current owner writes —
// the ownership hand-off discipline packet pooling relies on.
package mem
