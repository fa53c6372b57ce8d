package main

import "pabst"

// Example runs the control loop on the scaled 8-core system, short
// enough for every `go test ./...`.
func Example() {
	run(pabst.Scaled8Config(), 100_000, 12)
	// Output:
	// step 0 latency-target: weight=2 (lat 312 / target 280)
	// step 1 latency-target: hold weight=2 (lat 197 / target 280)
	// step 2 latency-target: hold weight=2 (lat 203 / target 280)
	// step 3 latency-target: hold weight=2 (lat 239 / target 280)
	// step 4 latency-target: hold weight=2 (lat 265 / target 280)
	// step 5 latency-target: hold weight=2 (lat 249 / target 280)
	// step 6 latency-target: hold weight=2 (lat 241 / target 280)
	// step 7 latency-target: hold weight=2 (lat 247 / target 280)
	// step 8 latency-target: hold weight=2 (lat 247 / target 280)
	// step 9 latency-target: hold weight=2 (lat 243 / target 280)
	// step 10 latency-target: hold weight=2 (lat 264 / target 280)
	// step 11 latency-target: hold weight=2 (lat 244 / target 280)
	//
	// converged: weight=2, service latency 244 cycles (target 280), background 4.1 B/cyc
	// the controller found the smallest service weight that meets the
	// latency target, leaving the rest of the machine to the background job.
}
