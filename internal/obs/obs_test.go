package obs

import (
	"strings"
	"testing"
)

func TestKindRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		got, ok := ParseKind(k.String())
		if !ok || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v; want %v, true", k.String(), got, ok, k)
		}
	}
	if _, ok := ParseKind("bogus"); ok {
		t.Fatal("ParseKind accepted a bogus name")
	}
}

func TestNilObserverIsFreeAndSafe(t *testing.T) {
	var o *Observer
	if o.Enabled() {
		t.Fatal("nil observer reports enabled")
	}
	o.Emit(&Event{Kind: KindEpoch}) // must not panic
	if o.Total() != 0 || o.Events() != nil || o.Flush() != nil {
		t.Fatal("nil observer leaked state")
	}
	e := Event{Kind: KindGovernor, Cycle: 1}
	allocs := testing.AllocsPerRun(100, func() { o.Emit(&e) })
	if allocs != 0 {
		t.Fatalf("nil-observer Emit allocates: %v allocs/op", allocs)
	}
}

func TestRingRotation(t *testing.T) {
	o := NewObserver(4)
	for i := 0; i < 6; i++ {
		o.Emit(&Event{Kind: KindEpoch, Epoch: uint64(i)})
	}
	if o.Total() != 6 {
		t.Fatalf("Total = %d, want 6", o.Total())
	}
	evs := o.Events()
	if len(evs) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if want := uint64(i + 2); e.Epoch != want {
			t.Fatalf("event %d epoch = %d, want %d (oldest-first)", i, e.Epoch, want)
		}
	}
}

func TestJSONLSinkDeterministicFields(t *testing.T) {
	var sb strings.Builder
	s := NewJSONLSink(&sb)
	e := Event{Kind: KindGovernor, Cycle: 100, Epoch: 2, Unit: 3, Sat: true, M: 8, DM: 1, Period: 64}
	s.Emit(&e)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	want := `{"kind":"governor","cycle":100,"epoch":2,"tile":3,"sat":true,"m":8,"dm":1,"period":64}` + "\n"
	if sb.String() != want {
		t.Fatalf("jsonl:\n got %q\nwant %q", sb.String(), want)
	}
}

func TestCSVSinkHeaderAndBytesColumn(t *testing.T) {
	var sb strings.Builder
	s := NewCSVSink(&sb)
	e := Event{Kind: KindEpoch, Cycle: 50, Epoch: 1, Unit: -1, Sat: true, NumClasses: 2}
	e.Bytes[0], e.Bytes[1] = 640, 320
	s.Emit(&e)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want header+row", len(lines))
	}
	if !strings.HasPrefix(lines[0], "kind,cycle,epoch,unit,sat,") {
		t.Fatalf("bad header: %q", lines[0])
	}
	if !strings.HasSuffix(lines[1], ",640;320") {
		t.Fatalf("bytes column not semicolon-joined: %q", lines[1])
	}
	if got := strings.Count(lines[0], ","); got != strings.Count(lines[1], ",") {
		t.Fatalf("row has %d commas, header has %d", strings.Count(lines[1], ","), got)
	}
}

func TestFilterSink(t *testing.T) {
	var sb strings.Builder
	inner := NewJSONLSink(&sb)
	f := NewFilterSink(inner, func(e *Event) bool { return e.Kind == KindFault })
	f.Emit(&Event{Kind: KindEpoch})
	f.Emit(&Event{Kind: KindFault, Injected: 1})
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(sb.String(), "\n"); got != 1 {
		t.Fatalf("filter passed %d events, want 1", got)
	}
	if !strings.Contains(sb.String(), `"kind":"fault"`) {
		t.Fatalf("wrong event passed: %q", sb.String())
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	x := 41.0
	r.Register("pabst_x", func() float64 { return x })
	r.Register("pabst_a", func() float64 { return 1.5 })
	r.Register("pabst_nil", nil) // ignored
	if got := r.Names(); len(got) != 2 || got[0] != "pabst_a" || got[1] != "pabst_x" {
		t.Fatalf("Names = %v", got)
	}
	x = 42
	if v, ok := r.Sample("pabst_x"); !ok || v != 42 {
		t.Fatalf("Sample(pabst_x) = %v, %v", v, ok)
	}
	if _, ok := r.Sample("missing"); ok {
		t.Fatal("Sample accepted unknown name")
	}
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	want := "pabst_a 1.5\npabst_x 42\n"
	if sb.String() != want {
		t.Fatalf("WriteProm:\n got %q\nwant %q", sb.String(), want)
	}
	// Nil registry is inert.
	var nr *Registry
	nr.Register("x", func() float64 { return 0 })
	if nr.Names() != nil || nr.WriteProm(&sb) != nil {
		t.Fatal("nil registry leaked state")
	}
}

func TestAnalyzeMatchesFig5Rule(t *testing.T) {
	// Share series rising to 0.7: in-band (|v-0.7| <= 0.1) from index 3,
	// held for 10 consecutive samples → settles at index 3.
	samples := []float64{0.5, 0.55, 0.58, 0.62, 0.66, 0.69, 0.7, 0.71, 0.7, 0.7, 0.7, 0.7, 0.7}
	c := Analyze(samples, 0.7, 0.1, 10)
	if !c.Settled || c.SettledAt != 3 {
		t.Fatalf("SettledAt = %d (settled=%v), want 3", c.SettledAt, c.Settled)
	}
	if c.Overshoot != 0 {
		t.Fatalf("Overshoot = %v, want 0 (never crossed before settling)", c.Overshoot)
	}
	if c.Ripple < 0.089 || c.Ripple > 0.091 {
		t.Fatalf("Ripple = %v, want ~0.09", c.Ripple)
	}
}

func TestAnalyzeOvershootAndNeverSettled(t *testing.T) {
	// Approaches from below, overshoots to 1.2 before settling.
	over := []float64{0.2, 0.6, 1.2, 1.05, 1.0, 1.0, 1.0}
	c := Analyze(over, 1.0, 0.05, 3)
	if !c.Settled || c.SettledAt != 4 {
		t.Fatalf("SettledAt = %d (settled=%v), want 4", c.SettledAt, c.Settled)
	}
	if c.Overshoot < 0.199 || c.Overshoot > 0.201 {
		t.Fatalf("Overshoot = %v, want 0.2", c.Overshoot)
	}

	osc := []float64{0, 1, 0, 1, 0, 1}
	c = Analyze(osc, 0.5, 0.1, 2)
	if c.Settled {
		t.Fatal("oscillating series reported settled")
	}
	if c.SettledAt != len(osc) {
		t.Fatalf("SettledAt = %d, want len(samples)", c.SettledAt)
	}
	if c.Mean != 0.5 || c.Ripple != 1 {
		t.Fatalf("Mean/Ripple = %v/%v, want 0.5/1", c.Mean, c.Ripple)
	}
}
