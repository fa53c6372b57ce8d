package pabst

import (
	"testing"
	"testing/quick"

	"pabst/internal/mem"
)

func TestPacerUnthrottledByDefault(t *testing.T) {
	p := NewPacer(16)
	for now := uint64(0); now < 100; now++ {
		if !p.CanIssue(now) {
			t.Fatalf("zero-period pacer throttled at %d", now)
		}
		p.OnIssue(now)
	}
}

func TestPacerEnforcesPeriod(t *testing.T) {
	p := NewPacer(16)
	p.SetPeriod(10)
	// Drain all stored credit first (fresh pacer has cNext=0 at now=0,
	// so up to burst requests can go back-to-back).
	now := uint64(0)
	issued := 0
	for ; now < 1000; now++ {
		if p.CanIssue(now) {
			p.OnIssue(now)
			issued++
		}
	}
	// Steady state: 1 request per 10 cycles, plus the initial burst.
	max := int(1000/10) + 17
	if issued > max {
		t.Fatalf("issued %d requests in 1000 cycles at period 10 (max %d)", issued, max)
	}
	if issued < 100 {
		t.Fatalf("issued only %d requests, pacer over-throttles", issued)
	}
}

// Property: over any long window, issues never exceed window/period plus
// the burst credit.
func TestPacerRateBoundProperty(t *testing.T) {
	f := func(period8 uint8, burst8 uint8, cycles16 uint16) bool {
		period := uint64(period8)%50 + 1
		burst := int(burst8)%20 + 1
		cycles := uint64(cycles16)%5000 + 100
		p := NewPacer(burst)
		p.SetPeriod(period)
		issued := uint64(0)
		for now := uint64(0); now < cycles; now++ {
			if p.CanIssue(now) {
				p.OnIssue(now)
				issued++
			}
		}
		return issued <= cycles/period+uint64(burst)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPacerCreditBounded(t *testing.T) {
	p := NewPacer(4)
	p.SetPeriod(10)
	// Long idle: credit must cap at burst, not grow with idle time.
	now := uint64(100000)
	if c := p.Credit(now); c != 4 {
		t.Fatalf("credit after long idle = %d, want burst cap 4", c)
	}
	issued := 0
	for ; now < 100005; now++ { // 5 consecutive cycles
		if p.CanIssue(now) {
			p.OnIssue(now)
			issued++
		}
	}
	if issued > 5 {
		t.Fatalf("burst of %d exceeded 4+1", issued)
	}
	// After the burst the pacer must throttle again.
	if p.CanIssue(now) {
		t.Fatal("pacer did not throttle after burst credit spent")
	}
}

func TestPacerBurstAllowsExactlyBurstRequests(t *testing.T) {
	p := NewPacer(8)
	p.SetPeriod(100)
	now := uint64(50000)
	burst := 0
	for p.CanIssue(now) && burst < 100 {
		p.OnIssue(now)
		burst++
	}
	// Stored credit is floor-bounded to 8 periods behind now, which
	// admits the 8 credited requests plus the one currently due; the
	// 10th in the same cycle must be blocked.
	if burst != 9 {
		t.Fatalf("same-cycle burst = %d, want 9 (8 credit + 1 due)", burst)
	}
}

func TestPacerL3HitRefund(t *testing.T) {
	p := NewPacer(16)
	p.SetPeriod(100)
	now := uint64(10000)
	// Spend all credit.
	for p.CanIssue(now) {
		p.OnIssue(now)
	}
	if p.CanIssue(now) {
		t.Fatal("precondition failed")
	}
	p.OnResponse(&mem.Packet{L3Hit: true}, now)
	if !p.CanIssue(now) {
		t.Fatal("L3 hit refund did not restore one request of headroom")
	}
}

func TestPacerWritebackCharge(t *testing.T) {
	p := NewPacer(16)
	p.SetPeriod(100)
	now := uint64(10000)
	for p.CanIssue(now) {
		p.OnIssue(now)
	}
	blockedUntilBase := p.cNext
	p.OnResponse(&mem.Packet{WBGen: true}, now)
	if p.cNext != blockedUntilBase+100 {
		t.Fatalf("writeback charge moved cNext by %d, want 100", p.cNext-blockedUntilBase)
	}
}

func TestPacerRefundAndChargeCancel(t *testing.T) {
	f := func(events []bool) bool {
		p := NewPacer(16)
		p.SetPeriod(10)
		q := NewPacer(16)
		q.SetPeriod(10)
		now := uint64(1000)
		for _, hit := range events {
			// Same issue on both; p additionally takes a hit refund
			// plus a writeback charge, which must cancel exactly.
			if p.CanIssue(now) != q.CanIssue(now) {
				return false
			}
			if p.CanIssue(now) {
				p.OnIssue(now)
				q.OnIssue(now)
			}
			if hit {
				p.OnResponse(&mem.Packet{L3Hit: true}, now)
				p.OnResponse(&mem.Packet{WBGen: true}, now)
			}
			now += 3
		}
		return p.cNext == q.cNext
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPacerZeroBurstPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPacer(0) did not panic")
		}
	}()
	NewPacer(0)
}

func TestPacerPeriodChangeTakesEffect(t *testing.T) {
	p := NewPacer(1)
	p.SetPeriod(1000)
	now := uint64(5000)
	for p.CanIssue(now) { // spend the stored credit and the due request
		p.OnIssue(now)
	}
	if p.CanIssue(now + 500) {
		t.Fatal("issued before period elapsed")
	}
	p.SetPeriod(10) // governor raised the rate
	// cNext unchanged, but future charges use the new period.
	if p.CanIssue(now + 500) {
		t.Fatal("SetPeriod must not rewind C_next")
	}
	if !p.CanIssue(now + 1000) {
		t.Fatal("pacer stuck after period change")
	}
}
