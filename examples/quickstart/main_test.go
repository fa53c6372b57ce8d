package main

import "pabst"

// Example runs the walkthrough on the scaled 8-core system, short enough
// for every `go test ./...`.
func Example() {
	run(pabst.Scaled8Config(), 400_000)
	// Output:
	// entitled shares:  0.70 / 0.30
	// observed shares:  0.70 / 0.30
	// bandwidth:        6.1 + 2.6 = 8.7 B/cycle (peak 9.1)
	// mean miss latency: frontend 269 cycles, batch 188 cycles
	// trace: 429 events, tile-0 governor ended at M=926 (period 43), 17/39 traced epochs saturated
}
