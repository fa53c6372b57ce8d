package main

// Example runs the three placements over a shorter window, so the
// comparison is part of every `go test ./...`.
func Example() {
	compare(1_000_000)
	// Output:
	// memcached service times (2 GHz cycles):
	// isolated                  839 txns  mean    1152  p95    1152  p99    1152 cycles  (bg: 0.0 B/cyc)
	// colocated, no QoS           2 txns  mean  502688  p95  524288  p99  524288 cycles  (bg: 9.1 B/cyc)
	// colocated, PABST 20:1     474 txns  mean    2064  p95    3072  p99    3840 cycles  (bg: 7.6 B/cyc)
	//
	// PABST keeps the tail near the isolated level while the
	// background job still consumes the bandwidth the server leaves idle.
}
