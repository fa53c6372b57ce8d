package soc

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"pabst/internal/ckpt"
	"pabst/internal/dram"
	"pabst/internal/fault"
	"pabst/internal/mem"
	"pabst/internal/qos"
	"pabst/internal/qospolicy"
	"pabst/internal/regulate"
	"pabst/internal/workload"
)

// zooSystem builds the 8-tile machine with the modeled NoC, the SAT and
// DRAM fault domains armed (the modeled fabric takes no NoC faults), and
// one generator of every kind, so a single walk reaches every checkpointable component type the product has (the
// per-channel governor with the "per-mc" variant of the pabst source).
func zooSystem(t testing.TB, pair qospolicy.Pair) *System {
	t.Helper()
	cfg := testCfg8()
	cfg.ModelNoC = true
	if pair.Source == perMC {
		pair.Source, cfg.PABST.PerMCGovernors = "pabst", true
	}
	plan, err := fault.Preset("everything")
	if err != nil {
		t.Fatal(err)
	}
	plan.NoC = fault.NoCPlan{} // the modeled fabric takes no NoC faults
	cfg.Faults = &plan
	reg := qos.NewRegistry()
	hi := reg.MustAdd("hi", 3, cfg.L3Ways/2)
	lo := reg.MustAdd("lo", 1, cfg.L3Ways/2)
	sys, err := New(cfg, reg, pair)
	if err != nil {
		t.Fatal(err)
	}
	mcf, _ := workload.SpecByName("mcf")
	spec, err := workload.NewSpec(mcf, workload.Region{Base: 6 << 32, Size: 128 << 20}, 5)
	if err != nil {
		t.Fatal(err)
	}
	kv, err := workload.NewMemcached(workload.DefaultMemcachedParams(), tileRegion(6), 6)
	if err != nil {
		t.Fatal(err)
	}
	var trace []workload.Op
	src := workload.NewStream("traced", tileRegion(7), 192, true)
	for i := 0; i < 500; i++ {
		var op workload.Op
		src.Next(&op)
		trace = append(trace, op)
	}
	replay, err := workload.NewReplayer("replay", trace)
	if err != nil {
		t.Fatal(err)
	}
	for tile, gen := range []workload.Generator{
		workload.NewStream("stream", tileRegion(0), 128, false),
		workload.NewChaser("chaser", tileRegion(1), 4, 1),
		workload.NewPeriodicStream("periodic", tileRegion(2), workload.Region{Base: 1 << 20, Size: 64 << 10}, 3000, 1000),
		workload.NewBursty("bursty", tileRegion(3), 16, 400, 3),
		workload.NewFilteredStream("filtered", tileRegion(4), 64, true, func(a mem.Addr) bool { return a%128 == 0 }),
		spec,
		kv,
		replay,
	} {
		class := hi.ID
		if tile >= 4 {
			class = lo.ID
		}
		if err := sys.Attach(tile, class, gen); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Finalize(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// perMC stands for the pabst source built with PerMCGovernors.
const perMC = "pabst-per-mc"

type namedWalker struct {
	name string
	w    ckpt.Walker
}

// walkers lists every checkpointable component of a system, each on its
// own, then the whole machine.
func walkers(s *System) []namedWalker {
	ws := []namedWalker{{"kernel", s.kernel}, {"qos", s.reg}, {"series", s.series}, {"base", ckpt.WalkFunc(s.base.ckpt)}}
	for _, tl := range s.tiles {
		if tl == nil {
			continue
		}
		p := fmt.Sprintf("tile%d.", tl.id)
		ws = append(ws, namedWalker{p + "core", tl.core}, namedWalker{p + "l1", tl.l1}, namedWalker{p + "l2", tl.l2},
			namedWalker{p + "mshr", ckpt.WalkFunc(tl.mshr.ckpt)}, namedWalker{p + "lat", &tl.lat},
			namedWalker{p + "gen:" + tl.core.Generator().Name(), tl.core.Generator().(ckpt.Walker)},
			namedWalker{p + "all", ckpt.WalkFunc(tl.ckpt)})
		if src, ok := tl.src.(ckpt.Walker); ok {
			ws = append(ws, namedWalker{p + "src", src})
		}
	}
	for i, sl := range s.slices {
		ws = append(ws, namedWalker{fmt.Sprintf("slice%d", i), ckpt.WalkFunc(sl.ckpt)})
	}
	for i, d := range s.doors {
		ws = append(ws, namedWalker{fmt.Sprintf("door%d", i), ckpt.WalkFunc(d.ckpt)})
	}
	for i, mc := range s.mcs {
		ws = append(ws, namedWalker{fmt.Sprintf("mc%d", i), mc})
		if arb, ok := s.arbs[i].(ckpt.Walker); ok {
			ws = append(ws, namedWalker{fmt.Sprintf("arb%d", i), arb})
		}
	}
	return append(ws, namedWalker{"net", s.net}, namedWalker{"faults", s.faults}, namedWalker{"system", s})
}

// carry encodes src and decodes the image into dst under lim.
func carry(src, dst ckpt.Walker, lim ckpt.Limits) ([]byte, error) {
	raw, err := ckpt.Encode(ckpt.Header{}, src)
	if err != nil {
		return nil, err
	}
	c, err := ckpt.Decode(raw)
	if err != nil {
		return nil, err
	}
	c.Limits = lim
	return raw, c.Load(dst)
}

// TestCkptIdempotent is the one round-trip test for every checkpointable
// component and every registered policy pair: encode a component of a
// machine that has run, decode it into the same component of a freshly
// built twin, encode that — the bytes must be equal. A field a walk
// forgets, stores twice, or rebuilds differently from its stored form
// shows up here as a diff naming the component.
func TestCkptIdempotent(t *testing.T) {
	for _, src := range append(qospolicy.SourceNames(), perMC) {
		for _, tgt := range qospolicy.TargetNames() {
			pair := qospolicy.Pair{Source: src, Target: tgt}
			t.Run(pair.String(), func(t *testing.T) {
				orig, twin := zooSystem(t, pair), zooSystem(t, pair)
				orig.Run(12_000)
				ow, tw := walkers(orig), walkers(twin)
				for i := range ow {
					want, err := carry(ow[i].w, tw[i].w, twin.limits())
					if err != nil {
						t.Fatalf("%s: %v", ow[i].name, err)
					}
					got, err := ckpt.Encode(ckpt.Header{}, tw[i].w)
					if err != nil {
						t.Fatalf("%s: re-encode: %v", ow[i].name, err)
					}
					if !bytes.Equal(got, want) {
						t.Errorf("%s: %d bytes re-encoded from the twin differ from the %d decoded into it", ow[i].name, len(got), len(want))
					}
				}
				// The twin now holds the whole machine: it must continue
				// exactly as the original does.
				orig.Run(3_000)
				twin.Run(3_000)
				a, _ := ckpt.Encode(ckpt.Header{}, orig)
				b, _ := ckpt.Encode(ckpt.Header{}, twin)
				if !bytes.Equal(a, b) {
					t.Error("restored twin diverged from the original within 3000 cycles")
				}
			})
		}
	}
}

// statefulSrc and statefulArb are policies with the one checkpoint
// method; wrapping a policy in a plain regulate.Source / dram.Arbiter
// embedding hides it again.
type statefulSrc struct {
	regulate.Source
	v            uint64
	saves, loads int
}

func (s *statefulSrc) Ckpt(c *ckpt.Codec) {
	if c.Loading() {
		s.loads++
	} else {
		s.saves++
	}
	c.U64(&s.v)
}

type statefulArb struct {
	dram.Arbiter
	statefulSrc
}

// TestWalkerProbedOnce pins the policy contract: a policy with the Ckpt
// method is walked when saving and when loading, one without it on
// neither side, and a checkpoint whose presence flag disagrees with the
// restoring machine is a mismatch. There is no way left to be saved but
// not restored.
func TestWalkerProbedOnce(t *testing.T) {
	build := func(src0 regulate.Source, arb0 dram.Arbiter) *System {
		s := zooSystem(t, qospolicy.Pair{Source: "none", Target: "fcfs"})
		s.tiles[0].src, s.arbs[0] = src0, arb0
		return s
	}
	type plainSrc struct{ regulate.Source }
	type plainArb struct{ dram.Arbiter }
	base := zooSystem(t, qospolicy.Pair{Source: "none", Target: "fcfs"})
	inner := base.tiles[0].src

	with := [2]*statefulSrc{{Source: inner, v: 7}, {Source: inner}}
	arbs := [2]*statefulArb{{statefulSrc: statefulSrc{v: 9}}, {}}
	if _, err := carry(build(with[0], arbs[0]), build(with[1], arbs[1]), base.limits()); err != nil {
		t.Fatal(err)
	}
	if with[0].saves != 1 || with[0].loads != 0 || with[1].saves != 0 || with[1].loads != 1 || with[1].v != 7 {
		t.Errorf("source with the method: saver %+v, loader %+v", with[0], with[1])
	}
	if arbs[0].saves != 1 || arbs[1].loads != 1 || arbs[1].v != 9 {
		t.Errorf("arbiter with the method: saver %+v, loader %+v", arbs[0].statefulSrc, arbs[1].statefulSrc)
	}

	// Hidden behind a plain embedding, the same values are never walked
	// and the image is byte-equal to one from the unwrapped machine.
	hidden := [2]*statefulSrc{{Source: inner, v: 7}, {Source: inner}}
	raw, err := carry(build(plainSrc{hidden[0]}, plainArb{}), build(plainSrc{hidden[1]}, plainArb{}), base.limits())
	if err != nil {
		t.Fatal(err)
	}
	if *hidden[0] != (statefulSrc{Source: inner, v: 7}) || *hidden[1] != (statefulSrc{Source: inner}) {
		t.Errorf("source without the method was walked: %+v, %+v", hidden[0], hidden[1])
	}
	if plain, _ := ckpt.Encode(ckpt.Header{}, base); !bytes.Equal(raw, plain) {
		t.Error("a policy without the method changed the image")
	}

	_, err = carry(build(with[0], nil), base, base.limits())
	if !errors.Is(err, ckpt.ErrMismatch) {
		t.Errorf("stateful image into a stateless machine: want ErrMismatch, got %v", err)
	}
}

// TestRestoreRejectsWildPacket: the machine indexes with a packet's
// SrcTile, MC and Class long after a restore, so a CRC-valid image
// carrying one out of range must fail the load with ErrCorrupt. At the
// parent of this test the same images restored cleanly and died in Run
// with an index out of range.
func TestRestoreRejectsWildPacket(t *testing.T) {
	pair := qospolicy.Pair{Source: "pabst", Target: "pabst"}
	for name, poke := range map[string]func(p *mem.Packet){
		"SrcTile": func(p *mem.Packet) { p.SrcTile = 65280 },
		"MC":      func(p *mem.Packet) { p.MC = 80 },
		"Class":   func(p *mem.Packet) { p.Class = 9 },
		"Kind":    func(p *mem.Packet) { p.Kind = 7 },
	} {
		s := zooSystem(t, pair)
		s.Run(12_000)
		poked := 0
		for _, tl := range s.tiles {
			for i := range tl.missQ {
				for j := 0; j < tl.missQ[i].Len(); j++ {
					poke(tl.missQ[i].At(j))
					poked++
				}
			}
		}
		if poked == 0 {
			t.Fatal("no miss queued at any tile; the test needs a packet in flight")
		}
		_, err := carry(s, zooSystem(t, pair), s.limits())
		if !errors.Is(err, ckpt.ErrCorrupt) {
			t.Errorf("%s out of range: want ErrCorrupt, got %v", name, err)
		}
	}
}

// TestRestoreRejectsDoorReadWithoutMSHR: a read parked at a front door
// reaches its tile again as a response, so a CRC-valid image in which
// its address names a line the tile holds no MSHR for, or which repeats
// another read in flight, must fail the load with ErrCorrupt. Before the
// load checked reads outside the tiles, both images restored and the
// machine panicked in Run when the response arrived.
func TestRestoreRejectsDoorReadWithoutMSHR(t *testing.T) {
	pair := qospolicy.Pair{Source: "pabst", Target: "pabst"}
	for name, poke := range map[string]func(door, other *mem.Packet){
		"address": func(door, _ *mem.Packet) { door.Addr ^= 1 << 32 },
		"repeat":  func(door, other *mem.Packet) { door.Addr, door.SrcTile = other.Addr, other.SrcTile },
	} {
		s := zooSystem(t, pair)
		var door *mem.Packet
		for i := 0; door == nil; i++ {
			if i == 100_000 {
				t.Fatal("no read ever parked at a front door")
			}
			s.Run(1)
			for cl := range s.doors[0].reads {
				if s.doors[0].reads[cl].Len() > 0 {
					door = s.doors[0].reads[cl].At(0)
					break
				}
			}
		}
		if _, err := carry(s, zooSystem(t, pair), s.limits()); err != nil {
			t.Fatalf("%s: unmodified image: %v", name, err)
		}
		var other *mem.Packet
		for _, tl := range s.tiles {
			for i := 0; tl != nil && other == nil && i < len(tl.missQ); i++ {
				if tl.missQ[i].Len() > 0 {
					other = tl.missQ[i].At(0)
				}
			}
		}
		if other == nil {
			t.Fatalf("%s: no miss queued at any tile", name)
		}
		poke(door, other)
		if _, err := carry(s, zooSystem(t, pair), s.limits()); !errors.Is(err, ckpt.ErrCorrupt) {
			t.Errorf("%s: want ErrCorrupt, got %v", name, err)
		}
	}
}
