// Package noc models the on-chip mesh interconnect of the simulated SoC as
// a hop-latency fabric.
//
// Following the paper's methodology ("We do not model internal SoC
// interconnect bandwidth, under the assumption that it is appropriately
// provisioned", Section IV), links never contend by default: a message
// between two nodes is delayed by a fixed base cost plus a per-hop cost
// over the XY route, and delivery ordering is handled by the receivers'
// delay queues. An optional contention model (config.System.ModelNoC)
// adds bounded per-link queues.
//
// Main entry points: NewNetwork builds the mesh around a delivery
// callback; Network.TrySend injects a message with backpressure;
// Network.Tick drains due deliveries in deterministic order.
package noc
