package soc

import (
	"fmt"
	"strings"
	"testing"

	"pabst/internal/cache"
	"pabst/internal/config"
	"pabst/internal/cpu"
	"pabst/internal/fault"
	"pabst/internal/mem"
	"pabst/internal/qos"
	"pabst/internal/qospolicy"
	"pabst/internal/workload"
)

// Fill conservation on the figure machines: a tile's private caches may
// change only in ways its miss path paid for. Per tile, over a whole run:
//
//	(a) every L2 frame an access allocates is backed by an MSHR insert;
//	(b) MSHR inserts = responses + entries still outstanding;
//	(c) every dirty line leaving the private levels reaches the shared
//	    cache: an L3 dirtying or a writeback toward memory.
//
// The checks read only counters the caches and slices already keep, so
// they need no hook in the machine: each core is rebuilt over an
// auditPort that wraps its tile's Access.

// auditPort is a tile's memory port as its core sees it. It forwards
// every access to the tile and books what the access did to the tile's
// caches and MSHR table.
type auditPort struct {
	tile   *Tile
	ledger *wbLedger

	inserts uint64 // MSHR entries the tile's accesses created
	frames  uint64 // L2 frames the tile's accesses allocated
	victims uint64 // dirty lines that had to leave the private levels
	arrived uint64 // writebacks the shared cache saw from this tile

	// phantoms counts accesses served by a frame that the same op's
	// refused attempt one retry earlier allocated: a load no memory read
	// delivered.
	phantoms   uint64
	refused    mem.Addr
	hasRefused bool
}

// wbLedger counts writebacks the shared cache received from the private
// levels: a Writeback hit (an L3 dirtying) or miss (the line goes on to
// memory). A slice's demand lookup moves its cache's and its own
// hit/miss counters together, so the difference moves only inside a
// tile's access, and only when that access displaced a dirty line.
type wbLedger struct {
	sys  *System
	seen uint64
}

func (l *wbLedger) total() uint64 {
	var n uint64
	for _, sl := range l.sys.slices {
		n += sl.cache.Hits + sl.cache.Misses - sl.Hits - sl.Misses
	}
	return n
}

// allocated is the number of frames c has ever allocated: no line leaves
// a cache but by eviction.
func allocated(c *cache.Cache) uint64 {
	var occ [mem.MaxClasses]int
	c.OccupancyInto(&occ)
	n := c.Evictions
	for _, v := range occ {
		n += uint64(v)
	}
	return n
}

func (p *auditPort) Access(addr mem.Addr, write bool, now, token uint64) (cpu.AccessStatus, uint64) {
	t := p.tile
	frames0, misses0, wb0 := allocated(t.l2), t.l2.Misses, t.l2.DirtyEvictions
	dirty0 := t.l1.DirtyEvictions + t.l2.DirtyEvictions
	n0 := t.mshr.len()

	st, done := t.Access(addr, write, now, token)

	alloc := allocated(t.l2) - frames0
	p.frames += alloc
	p.inserts += uint64(t.mshr.len() - n0)
	// Dirty L2 victims, plus dirty L1 victims the L2 did not hold (its
	// Writeback misses, which allocate nothing).
	p.victims += t.l2.DirtyEvictions - wb0 + (t.l2.Misses - misses0 - alloc)
	if t.l1.DirtyEvictions+t.l2.DirtyEvictions != dirty0 {
		total := p.ledger.total()
		p.arrived += total - p.ledger.seen
		p.ledger.seen = total
	}
	line := addr.Line()
	if p.hasRefused && line == p.refused && st == cpu.AccessDone {
		p.phantoms++
	}
	p.refused, p.hasRefused = line, st == cpu.AccessBlocked && alloc > 0
	return st, done
}

// audit rebuilds every attached tile's core over an auditPort. The core
// has not ticked yet, so the rebuilt one is the same core.
func audit(t *testing.T, sys *System) []*auditPort {
	t.Helper()
	led := &wbLedger{sys: sys}
	var ports []*auditPort
	for _, tl := range sys.tiles {
		if tl == nil {
			continue
		}
		p := &auditPort{tile: tl, ledger: led}
		core, err := cpu.New(tl.id, sys.cfg.Core, tl.core.Generator(), p)
		if err != nil {
			t.Fatal(err)
		}
		tl.core = core
		ports = append(ports, p)
	}
	return ports
}

// figRegion is the experiments' per-tile footprint (pabst.TileRegion),
// large enough for every SPEC proxy.
func figRegion(tile int) workload.Region {
	return workload.Region{Base: mem.Addr(uint64(tile+1) << 32), Size: 256 << 20}
}

// figMachine is one machine an experiment measures, built the way the
// experiment registry builds it, under one of the modes it is run in.
type figMachine struct {
	name  string
	cfg   config.System
	mode  qospolicy.Pair
	build func(cfg config.System, reg *qos.Registry, attach func(tile int, c *qos.Class, g workload.Generator))
}

func streamsOn(attach func(int, *qos.Class, workload.Generator), c *qos.Class, from, to int, write bool) {
	for i := from; i < to; i++ {
		attach(i, c, workload.NewStream("stream", figRegion(i), 128, write))
	}
}

func specOn(attach func(int, *qos.Class, workload.Generator), c *qos.Class, name string, from, to int) {
	p, _ := workload.SpecByName(name)
	for i := from; i < to; i++ {
		g, err := workload.NewSpec(p, figRegion(i), uint64(i)+1)
		if err != nil {
			panic(err)
		}
		attach(i, c, g)
	}
}

// quickFigMachines lists the figure machines at quick scale (2000-cycle
// epochs and bandwidth windows).
func quickFigMachines() []figMachine {
	quick, quick8 := testCfg(), testCfg8()
	const measure = 150_000 // exp.Quick().Measure

	twoStreams := func(wHi, wLo uint64, write bool) func(config.System, *qos.Registry, func(int, *qos.Class, workload.Generator)) {
		return func(cfg config.System, reg *qos.Registry, attach func(int, *qos.Class, workload.Generator)) {
			streamsOn(attach, reg.MustAdd("hi", wHi, cfg.L3Ways/2), 0, 16, write)
			streamsOn(attach, reg.MustAdd("lo", wLo, cfg.L3Ways/2), 16, 32, write)
		}
	}
	chaser := func(cfg config.System, reg *qos.Registry, attach func(int, *qos.Class, workload.Generator)) {
		hi := reg.MustAdd("chaser", 3, cfg.L3Ways/2)
		lo := reg.MustAdd("stream", 1, cfg.L3Ways/2)
		for i := 0; i < 16; i++ {
			attach(i, hi, workload.NewChaser("chaser", figRegion(i), 8, uint64(i)+1))
		}
		streamsOn(attach, lo, 16, 32, true)
	}
	periodic := func(cfg config.System, reg *qos.Registry, attach func(int, *qos.Class, workload.Generator)) {
		per := reg.MustAdd("periodic-70", 7, cfg.L3Ways/2)
		con := reg.MustAdd("constant-30", 3, cfg.L3Ways/2)
		for i := 0; i < 16; i++ {
			cached := workload.Region{Base: figRegion(i).Base + 128<<20, Size: 128 << 10}
			attach(i, per, workload.NewPeriodicStream("periodic", figRegion(i), cached, measure/2, measure/2))
		}
		streamsOn(attach, con, 16, 32, false)
	}
	specMix := func(name string) func(config.System, *qos.Registry, func(int, *qos.Class, workload.Generator)) {
		return func(cfg config.System, reg *qos.Registry, attach func(int, *qos.Class, workload.Generator)) {
			specOn(attach, reg.MustAdd("spec", 32, cfg.L3Ways/2), name, 0, 16)
			streamsOn(attach, reg.MustAdd("aggressor", 1, cfg.L3Ways/2), 16, 32, false)
		}
	}
	memcached := func(cfg config.System, reg *qos.Registry, attach func(int, *qos.Class, workload.Generator)) {
		mc := reg.MustAdd("memcached", 20, cfg.L3Ways/2)
		g, err := workload.NewMemcached(workload.DefaultMemcachedParams(), figRegion(0), 11)
		if err != nil {
			panic(err)
		}
		attach(0, mc, g)
		streamsOn(attach, reg.MustAdd("aggressor", 1, cfg.L3Ways/2), 1, 8, false)
	}
	skew := func(cfg config.System, reg *qos.Registry, attach func(int, *qos.Class, workload.Generator)) {
		hot := reg.MustAdd("hot", 1, cfg.L3Ways/2)
		for i := 0; i < 16; i++ {
			attach(i, hot, workload.NewFilteredStream("hot", figRegion(i), 128, false, func(a mem.Addr) bool {
				return MCIndex(a, cfg.NumMCs) == 0
			}))
		}
		streamsOn(attach, reg.MustAdd("uniform", 1, cfg.L3Ways/2), 16, 32, false)
	}
	noc, hetero, faulted, permc := quick, quick, quick, quick
	noc.ModelNoC = true
	hetero.PABST.HeterogeneousThreads = true
	permc.PABST.PerMCGovernors = true
	plan, err := fault.Preset("sat-partition")
	if err != nil {
		panic(err)
	}
	faulted.Faults = &plan

	ms := []figMachine{
		{"fig5 streams 7:3", quick, qospolicy.PABST, twoStreams(7, 3, false)},
		{"faults streams 7:3 sat-partition", faulted, qospolicy.PABST, twoStreams(7, 3, false)},
		{"ext-noc streams 7:3 modeled mesh", noc, qospolicy.PABST, twoStreams(7, 3, false)},
		{"fig6 periodic", quick, qospolicy.PABST, periodic},
		{"ext-static periodic", quick, qospolicy.StaticSource, periodic},
		{"ext-skew", permc, qospolicy.PABST, skew},
		{"ext-hetero", hetero, qospolicy.PABST, func(cfg config.System, reg *qos.Registry, attach func(int, *qos.Class, workload.Generator)) {
			mixed := reg.MustAdd("mixed", 1, cfg.L3Ways/2)
			attach(0, mixed, workload.NewStream("hot", figRegion(0), 128, false))
			for i := 1; i < 16; i++ {
				attach(i, mixed, workload.NewStream("quiet", workload.Region{Base: figRegion(i).Base, Size: 64 << 10}, 128, false))
			}
			streamsOn(attach, reg.MustAdd("busy", 1, cfg.L3Ways/2), 16, 32, false)
		}},
		{"fig8 l3-resident + ddr streams", quick, qospolicy.PABST, func(cfg config.System, reg *qos.Registry, attach func(int, *qos.Class, workload.Generator)) {
			l3c := reg.MustAdd("l3-stream-25", 1, 6)
			for i := 0; i < 8; i++ {
				attach(i, l3c, workload.NewStream("l3-resident", workload.Region{Base: figRegion(i).Base, Size: 256 << 10}, 128, false))
			}
			streamsOn(attach, reg.MustAdd("ddr-stream-50", 2, 5), 8, 20, false)
			streamsOn(attach, reg.MustAdd("ddr-stream-25", 1, 5), 20, 32, false)
		}},
		{"fig9 memcached + aggressor / none", quick8, qospolicy.None, memcached},
		{"fig9 memcached + aggressor / pabst", quick8, qospolicy.PABST, memcached},
		{"fig11 iaas sphinx3", quick, qospolicy.PABST, func(cfg config.System, reg *qos.Registry, attach func(int, *qos.Class, workload.Generator)) {
			for c := 0; c < 4; c++ {
				specOn(attach, reg.MustAdd("vm-"+string(rune('a'+c)), 1, cfg.L3Ways/4), "sphinx3", c*8, c*8+8)
			}
		}},
		{"fig11 iaas-static sphinx3", quick.ScaleDRAM(4), qospolicy.None, func(cfg config.System, reg *qos.Registry, attach func(int, *qos.Class, workload.Generator)) {
			specOn(attach, reg.MustAdd("vm-static", 1, cfg.L3Ways/4), "sphinx3", 0, 8)
		}},
		{"pareto wstreams 7:3 load 4 / none+dpq", quick, qospolicy.Pair{Source: "none", Target: "dpq"},
			func(cfg config.System, reg *qos.Registry, attach func(int, *qos.Class, workload.Generator)) {
				streamsOn(attach, reg.MustAdd("hi", 7, cfg.L3Ways/2), 0, 4, true)
				streamsOn(attach, reg.MustAdd("lo", 3, cfg.L3Ways/2), 16, 20, true)
			}},
	}
	for _, mode := range []qospolicy.Pair{qospolicy.SourceOnly, qospolicy.TargetOnly, qospolicy.PABST} {
		ms = append(ms,
			figMachine{"fig1/7 stream+stream / " + mode.String(), quick, mode, twoStreams(3, 1, true)},
			figMachine{"fig1/7 chaser+stream / " + mode.String(), quick, mode, chaser})
	}
	for _, p := range workload.SpecSuite() {
		ms = append(ms, figMachine{"fig10/12 " + p.Name + " vs aggressor / none", quick, qospolicy.None, specMix(p.Name)})
	}
	return ms
}

// TestFillConservationOnFigureMachines runs every figure machine for one
// quick-scale warmup plus measure window and audits every tile.
func TestFillConservationOnFigureMachines(t *testing.T) {
	const cycles = 250_000 // exp.Quick(): 100k warmup + 150k measure
	for _, m := range quickFigMachines() {
		t.Run(m.name, func(t *testing.T) {
			t.Parallel()
			reg := qos.NewRegistry()
			type att struct {
				tile  int
				class mem.ClassID
				gen   workload.Generator
			}
			var atts []att
			m.build(m.cfg, reg, func(tile int, c *qos.Class, g workload.Generator) {
				atts = append(atts, att{tile, c.ID, g})
			})
			sys, err := New(m.cfg, reg, m.mode)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range atts {
				if err := sys.Attach(a.tile, a.class, a.gen); err != nil {
					t.Fatal(err)
				}
			}
			if err := sys.Finalize(); err != nil {
				t.Fatal(err)
			}
			ports := audit(t, sys)
			sys.Run(cycles)

			var errs []string
			var phantoms, victims, dropped, ops [mem.MaxClasses]uint64
			for _, p := range ports {
				tl := p.tile
				phantoms[tl.class] += p.phantoms
				victims[tl.class] += p.victims
				dropped[tl.class] += p.victims - p.arrived
				ops[tl.class] += tl.core.OpsRetired()
				resp, out := tl.lat.Count(), uint64(tl.mshr.len())
				if p.frames != p.inserts {
					errs = append(errs, fmt.Sprintf("tile %d: (a) %d L2 frames allocated, %d MSHR inserts", tl.id, p.frames, p.inserts))
				}
				if p.inserts != resp+out {
					errs = append(errs, fmt.Sprintf("tile %d: (b) %d MSHR inserts, %d responses + %d outstanding", tl.id, p.inserts, resp, out))
				}
				if p.victims != p.arrived {
					errs = append(errs, fmt.Sprintf("tile %d: (c) %d dirty victims, %d reached the L3", tl.id, p.victims, p.arrived))
				}
			}
			if len(errs) == 0 {
				return
			}
			var b strings.Builder
			fmt.Fprintf(&b, "%d violations over %d tiles, first: %s", len(errs), len(ports), strings.Join(errs[:min(len(errs), 3)], "; "))
			for _, c := range reg.Classes() {
				if ops[c.ID] > 0 {
					fmt.Fprintf(&b, "\n\tclass %s: %d of %d retired ops served by a frame their refused access allocated (%.3f); %d of %d dirty victims dropped",
						c.Name, phantoms[c.ID], ops[c.ID], float64(phantoms[c.ID])/float64(ops[c.ID]), dropped[c.ID], victims[c.ID])
				}
			}
			t.Error(b.String())
		})
	}
}
