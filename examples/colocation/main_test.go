package main

// Example runs the three placements over a shorter window, so the
// comparison is part of every `go test ./...`.
func Example() {
	compare(1_000_000)
	// Output:
	// memcached service times (2 GHz cycles):
	// isolated                  839 txns  mean    1152  p95    1152  p99    1152 cycles  (bg: 0.0 B/cyc)
	// colocated, no QoS          50 txns  mean   19801  p95   43008  p99   51200 cycles  (bg: 9.1 B/cyc)
	// colocated, PABST 20:1     483 txns  mean    2030  p95    2944  p99    6400 cycles  (bg: 7.1 B/cyc)
	//
	// PABST keeps the tail near the isolated level while the
	// background job still consumes the bandwidth the server leaves idle.
}
