package regulate

import (
	"testing"

	"pabst/internal/mem"
)

func TestUnthrottledPassesEverything(t *testing.T) {
	var u Unthrottled
	for now := uint64(0); now < 100; now++ {
		if !u.CanIssue(now, int(now)%4) {
			t.Fatal("Unthrottled throttled")
		}
		u.OnIssue(now, int(now)%4)
		u.OnResponse(&mem.Packet{L3Hit: true, WBGen: true}, now)
		u.Epoch(Heartbeat{SatAny: now%2 == 0, SatPerMC: []bool{true, false}})
	}
}
