package main

import "pabst"

// Example runs the walkthrough on the scaled 8-core system, short enough
// for every `go test ./...`.
func Example() {
	run(pabst.Scaled8Config(), 400_000)
	// Output:
	// entitled shares:  0.70 / 0.30
	// observed shares:  0.70 / 0.30
	// bandwidth:        6.3 + 2.7 = 9.0 B/cycle (peak 9.1)
	// mean miss latency: frontend 335 cycles, batch 269 cycles
	// trace: 429 events, tile-0 governor ended at M=865 (period 40), 12/39 traced epochs saturated
}
