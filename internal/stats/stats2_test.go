package stats

import (
	"strings"
	"testing"
)

func TestHistString(t *testing.T) {
	var h Hist
	for i := uint64(1); i <= 100; i++ {
		h.Add(i)
	}
	s := h.String()
	for _, want := range []string{"n=100", "p50", "p99", "max=100"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Hist.String() = %q missing %q", s, want)
		}
	}
}

func TestHistPercentileBounds(t *testing.T) {
	var h Hist
	h.Add(10)
	h.Add(20)
	if h.Percentile(0) != 10 {
		t.Fatalf("p0 = %d", h.Percentile(0))
	}
	if h.Percentile(100) != 20 {
		t.Fatalf("p100 = %d", h.Percentile(100))
	}
	if h.Percentile(150) != 20 {
		t.Fatalf("p>100 = %d", h.Percentile(150))
	}
}

func TestSeriesZeroWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero window accepted")
		}
	}()
	NewSeries(0)
}
