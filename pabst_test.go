package pabst_test

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"pabst"
	"pabst/internal/mem"
	"pabst/internal/qospolicy"
)

func TestBuilderEndToEnd(t *testing.T) {
	cfg := pabst.Scaled8Config()
	cfg.PABST.EpochCycles = 2000
	cfg.BWWindow = 2000
	b := pabst.NewBuilder(cfg, pabst.ModePABST)
	hi := b.AddClass("hi", 3, cfg.L3Ways/2)
	lo := b.AddClass("lo", 1, cfg.L3Ways/2)
	for i := 0; i < 4; i++ {
		b.Attach(i, hi, pabst.Stream("hi", pabst.TileRegion(i), 128, false))
		b.Attach(4+i, lo, pabst.Stream("lo", pabst.TileRegion(4+i), 128, false))
	}
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys.Warmup(150_000)
	sys.Run(150_000)
	m := sys.Metrics()
	if math.Abs(m.ShareOf(hi)-0.75) > 0.08 {
		t.Fatalf("hi share %.2f, want ~0.75", m.ShareOf(hi))
	}
	snap := sys.Snapshot()
	if snap.Class(hi).IPC == 0 || snap.Class(lo).IPC == 0 {
		t.Fatal("classes made no progress")
	}
	if snap.Class(hi).MissLatency == 0 || snap.Class(hi).MCReadLatency == 0 {
		t.Fatal("latency accounting empty")
	}
	if sys.Now() != 300_000 {
		t.Fatalf("Now() = %d", sys.Now())
	}
	if src, tgt := sys.PolicyPair(); (pabst.Mode{Source: src, Target: tgt}) != pabst.ModePABST {
		t.Fatalf("mode lost: wired %s+%s", src, tgt)
	}
}

func TestBuilderErrorPaths(t *testing.T) {
	cfg := pabst.Scaled8Config()
	// Zero weight surfaces at Build.
	b := pabst.NewBuilder(cfg, pabst.ModeNone)
	b.AddClass("bad", 0, 4)
	if _, err := b.Build(); err == nil {
		t.Fatal("zero-weight class accepted")
	}
	// Out-of-range tile surfaces at Build.
	b = pabst.NewBuilder(cfg, pabst.ModeNone)
	c := b.AddClass("ok", 1, 4)
	b.Attach(99, c, pabst.Stream("s", pabst.TileRegion(0), 128, false))
	if _, err := b.Build(); err == nil {
		t.Fatal("out-of-range tile accepted")
	}
	// Oversubscribed L3 surfaces at Build.
	b = pabst.NewBuilder(cfg, pabst.ModeNone)
	b.AddClass("a", 1, cfg.L3Ways)
	b.AddClass("b", 1, 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("oversubscribed L3 accepted")
	}
}

func TestSpecProxyNames(t *testing.T) {
	names := pabst.SpecNames()
	if len(names) != 8 {
		t.Fatalf("SpecNames = %v", names)
	}
	for _, n := range names {
		if _, err := pabst.SpecProxy(n, pabst.TileRegion(0), 1); err != nil {
			t.Fatalf("SpecProxy(%s): %v", n, err)
		}
	}
	if _, err := pabst.SpecProxy("nonesuch", pabst.TileRegion(0), 1); err == nil {
		t.Fatal("unknown proxy accepted")
	}
}

func TestParseModeFacade(t *testing.T) {
	for _, m := range qospolicy.Presets() {
		got, err := pabst.ParseMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMode(%v) = %v, %v", m, got, err)
		}
	}
}

func TestSetWeightLive(t *testing.T) {
	cfg := pabst.Scaled8Config()
	cfg.PABST.EpochCycles = 2000
	cfg.BWWindow = 2000
	b := pabst.NewBuilder(cfg, pabst.ModePABST)
	a := b.AddClass("a", 1, cfg.L3Ways/2)
	c := b.AddClass("b", 1, cfg.L3Ways/2)
	for i := 0; i < 4; i++ {
		b.Attach(i, a, pabst.Stream("a", pabst.TileRegion(i), 128, false))
		b.Attach(4+i, c, pabst.Stream("b", pabst.TileRegion(4+i), 128, false))
	}
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys.Warmup(150_000)
	sys.Run(100_000)
	even := sys.Metrics().ShareOf(a)
	if math.Abs(even-0.5) > 0.08 {
		t.Fatalf("equal weights give share %.2f", even)
	}
	if err := sys.SetWeight(a, 4); err != nil {
		t.Fatal(err)
	}
	reweighted := sys.Snapshot()
	if got := reweighted.Class(a).EntitledShare; got != 0.8 {
		t.Fatalf("entitled share after reweight = %.2f", got)
	}
	sys.Warmup(150_000)
	sys.Run(100_000)
	if got := sys.Metrics().ShareOf(a); math.Abs(got-0.8) > 0.08 {
		t.Fatalf("share after live reweight = %.2f, want ~0.80", got)
	}
}

func TestMemcachedServerFacade(t *testing.T) {
	m := pabst.MemcachedServer(pabst.TileRegion(0), 7)
	if m.Name() != "memcached" {
		t.Fatal("wrong generator")
	}
}

func TestTileRegionsDisjoint(t *testing.T) {
	for i := 0; i < 31; i++ {
		a, b := pabst.TileRegion(i), pabst.TileRegion(i+1)
		if uint64(a.Base)+a.Size > uint64(b.Base) {
			t.Fatalf("regions %d and %d overlap", i, i+1)
		}
	}
}

// TestTileRegionsFitTheAddressWidth: every tile window of a 32×32 mesh
// (1024 tiles, four times the benchmark's largest machine) ends below
// 2^mem.AddrBits, so the width drops no bit of a tile's address.
func TestTileRegionsFitTheAddressWidth(t *testing.T) {
	cfg := pabst.MeshScaledConfig(32, 32)
	for i := range cfg.NumTiles() {
		if r := pabst.TileRegion(i); uint64(r.Base)+r.Size > 1<<mem.AddrBits {
			t.Fatalf("tile %d's region [%#x, %#x) ends beyond 2^%d", i, uint64(r.Base), uint64(r.Base)+r.Size, mem.AddrBits)
		}
	}
}

// TestConfigRoundTripFacade: the configuration a system was built from
// leaves in its checkpoint and comes back through pabst.Restore as the
// same value.
func TestConfigRoundTripFacade(t *testing.T) {
	cfg := pabst.Default32Config()
	b := pabst.NewBuilder(cfg, pabst.ModePABST)
	c := b.AddClass("c", 1, cfg.L3Ways)
	b.Attach(0, c, pabst.Stream("s", pabst.TileRegion(0), 128, false))
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	var ck bytes.Buffer
	if err := sys.Checkpoint(&ck); err != nil {
		t.Fatal(err)
	}
	got, err := pabst.Restore(&ck)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if !reflect.DeepEqual(got.Config(), sys.Config()) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got.Config(), sys.Config())
	}
}
