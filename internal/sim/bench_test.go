package sim

import "testing"

// busy is a Sleeper with work every cycle, so the event loop executes
// every cycle and what is timed is the loop itself.
type busy struct{ ticks uint64 }

func (c *busy) Tick(now uint64)                { c.ticks++ }
func (c *busy) NextEventAt(from uint64) uint64 { return from }
func (c *busy) FastForward(from, to uint64)    {}

// BenchmarkEventCycleTwoHooks times one executed cycle of the event loop
// with the SoC's two periodic hooks (epoch, bandwidth window) registered:
// a pop, a dispatch, a re-key, and the hook bookkeeping a cycle pays
// whether or not a hook is due.
func BenchmarkEventCycleTwoHooks(b *testing.B) {
	var k Kernel
	k.SetEventMode(1, nil)
	c := &busy{}
	k.RegisterEvent(0, c)
	fired := 0
	k.Every(2000, 2000, func(uint64) { fired++ })
	k.Every(1000, 1000, func(uint64) { fired++ })
	b.ReportAllocs()
	b.ResetTimer()
	k.Run(uint64(b.N))
	if c.ticks != uint64(b.N) {
		b.Fatalf("%d ticks in %d cycles", c.ticks, b.N)
	}
}
