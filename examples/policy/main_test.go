package main

import "pabst"

// Example runs the control loop on the scaled 8-core system, short
// enough for every `go test ./...`.
func Example() {
	run(pabst.Scaled8Config(), 100_000, 12)
	// Output:
	// step 0 latency-target: weight=2 (lat 347 / target 280)
	// step 1 latency-target: hold weight=2 (lat 195 / target 280)
	// step 2 latency-target: hold weight=2 (lat 221 / target 280)
	// step 3 latency-target: hold weight=2 (lat 251 / target 280)
	// step 4 latency-target: hold weight=2 (lat 268 / target 280)
	// step 5 latency-target: hold weight=2 (lat 246 / target 280)
	// step 6 latency-target: hold weight=2 (lat 253 / target 280)
	// step 7 latency-target: hold weight=2 (lat 266 / target 280)
	// step 8 latency-target: hold weight=2 (lat 233 / target 280)
	// step 9 latency-target: hold weight=2 (lat 257 / target 280)
	// step 10 latency-target: hold weight=2 (lat 248 / target 280)
	// step 11 latency-target: hold weight=2 (lat 240 / target 280)
	//
	// converged: weight=2, service latency 250 cycles (target 280), background 4.2 B/cyc
	// the controller found the smallest service weight that meets the
	// latency target, leaving the rest of the machine to the background job.
}
