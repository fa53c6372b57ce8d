package main

// Example runs the three placements over a shorter window, so the
// comparison is part of every `go test ./...`.
func Example() {
	compare(1_000_000)
	// Output:
	// memcached service times (2 GHz cycles):
	// isolated                  839 txns  mean    1152  p95    1152  p99    1152 cycles  (bg: 0.0 B/cyc)
	// colocated, no QoS         253 txns  mean    3908  p95    4096  p99    4352 cycles  (bg: 9.0 B/cyc)
	// colocated, PABST 20:1     582 txns  mean    1679  p95    2176  p99    2560 cycles  (bg: 7.1 B/cyc)
	//
	// PABST keeps the tail near the isolated level while the
	// background job still consumes the bandwidth the server leaves idle.
}
