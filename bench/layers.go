package main

// layers.go holds every product API the benchmark calls: the machines,
// the figure set, the sweep service and one isolated driver per layer.
// The rest of the benchmark (timing, statistics, spans, output) sees
// only the plain types declared here. It avoids the surfaces ROADMAP
// slates for deletion: WithWorkers, WithFastForward, the deprecated
// exp.FigN wrappers, dram.RefController and StrictMSHRs.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"pabst"
	"pabst/internal/cache"
	"pabst/internal/cpu"
	"pabst/internal/dram"
	"pabst/internal/exp"
	"pabst/internal/mem"
	"pabst/internal/noc"
	"pabst/internal/obs"
	ipabst "pabst/internal/pabst"
	"pabst/internal/qos"
	"pabst/internal/qospolicy"
	"pabst/internal/regulate"
	"pabst/internal/serve"
	"pabst/internal/sim"
	"pabst/internal/stats"
	"pabst/internal/workload"
)

// ---------------------------------------------------------------- soc

// tileInput is what the seed decides for one tile's thread.
type tileInput struct {
	Offset uint64 // byte offset of the thread's region in the tile's window
	Seed   uint64 // generator seed
	Gap    int    // idle cycles between bursts (idle256)
}

// machineKind describes one library-path workload machine.
type machineKind struct {
	tiles    int
	warmup   uint64 // simulated cycles before the timed section
	chunk    uint64 // simulated cycles per timed Run call (10-20 host ms, whole epochs)
	statAt   uint64 // timed cycles after which the simulated outputs are read
	twoClass bool   // has a high and a low class (share, p99 are defined)
	config   func() pabst.SystemConfig
	attach   func(b *pabst.Builder, cfg pabst.SystemConfig, in []tileInput) pabst.ClassID
}

// machineEpoch is the governor epoch of every workload machine (the
// quick-scale epoch; the paper's 20k-cycle epoch needs far longer runs).
const machineEpoch = 2000

func paper32() pabst.SystemConfig {
	cfg := pabst.Default32Config()
	cfg.PABST.EpochCycles = machineEpoch
	return cfg
}

func regionOf(tile int, in tileInput) pabst.Region {
	r := pabst.TileRegion(tile)
	return pabst.Region{Base: r.Base + pabst.Addr(in.Offset), Size: r.Size / 2}
}

var machineKinds = map[string]machineKind{
	"sat32": {
		tiles: 32, warmup: 400_000, chunk: 6_000, statAt: 1_200_000, twoClass: true, config: paper32,
		attach: func(b *pabst.Builder, cfg pabst.SystemConfig, in []tileInput) pabst.ClassID {
			hi := b.AddClass("hi", 7, cfg.L3Ways/2)
			lo := b.AddClass("lo", 3, cfg.L3Ways/2)
			for i := 0; i < 16; i++ {
				b.Attach(i, hi, pabst.Stream("hi", regionOf(i, in[i]), 128, false))
				b.Attach(16+i, lo, pabst.Stream("lo", regionOf(16+i, in[16+i]), 128, false))
			}
			return hi
		},
	},
	"mix32": {
		tiles: 32, warmup: 400_000, chunk: 10_000, statAt: 1_200_000, twoClass: true, config: paper32,
		attach: func(b *pabst.Builder, cfg pabst.SystemConfig, in []tileInput) pabst.ClassID {
			hi := b.AddClass("chaser", 3, cfg.L3Ways/2)
			lo := b.AddClass("wstream", 1, cfg.L3Ways/2)
			for i := 0; i < 16; i++ {
				b.Attach(i, hi, pabst.Chaser("chaser", regionOf(i, in[i]), 8, in[i].Seed))
				b.Attach(16+i, lo, pabst.Stream("wstream", regionOf(16+i, in[16+i]), 128, true))
			}
			return hi
		},
	},
	"idle256": {
		tiles: 256, warmup: 1_000_000, chunk: 40_000, statAt: 3_000_000,
		config: func() pabst.SystemConfig {
			cfg := pabst.MeshScaledConfig(16, 16)
			cfg.PABST.EpochCycles = machineEpoch
			return cfg
		},
		attach: func(b *pabst.Builder, cfg pabst.SystemConfig, in []tileInput) pabst.ClassID {
			c := b.AddClass("bursty", 1, cfg.L3Ways)
			for i := range in {
				b.Attach(i, c, pabst.BurstyTraffic("bursty", regionOf(i, in[i]), 16, in[i].Gap, in[i].Seed))
			}
			return c
		},
	},
}

// machine is one built system plus the class whose share it reports.
type machine struct {
	sys      *pabst.System
	hi       pabst.ClassID
	twoClass bool
}

// build wires the machine on the named kernel ("cycle" or "event"). A
// nil observer keeps probes off.
func (k machineKind) build(in []tileInput, kernel string, o *pabst.Observer) (*machine, error) {
	cfg := k.config()
	b := pabst.NewBuilder(cfg, pabst.ModePABST,
		pabst.WithKernel(kernel), pabst.WithPolicy("pabst", "pabst"), pabst.WithObserver(o))
	hi := k.attach(b, cfg, in)
	sys, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &machine{sys: sys, hi: hi, twoClass: k.twoClass}, nil
}

func newRingObserver() *pabst.Observer { return pabst.NewObserver(0) }

func (m *machine) warmup(cycles uint64) { m.sys.Warmup(cycles) }
func (m *machine) run(cycles uint64)    { m.sys.Run(cycles) }
func (m *machine) resetStats()          { m.sys.ResetStats() }
func (m *machine) close()               { m.sys.Close() }

// machineCounts are the lifetime work counts Snapshot exposes.
type machineCounts struct {
	Cycle, Epochs, Skipped, LateWakes uint64
	Reads, Writes, RowHits            uint64
	Visited                           map[string]uint64 // per event-kernel dispatch class
}

func (m *machine) counts() machineCounts {
	s := m.sys.Snapshot()
	c := machineCounts{Cycle: s.Cycle, Epochs: s.Epochs, Skipped: s.SkippedCycles, LateWakes: s.LateWakes,
		Visited: map[string]uint64{}}
	for _, mc := range s.MCs {
		c.Reads += mc.Reads
		c.Writes += mc.Writes
		c.RowHits += mc.RowHits
	}
	for _, ec := range s.EventClasses {
		c.Visited[ec.Class] = ec.Visited
	}
	return c
}

// simStats are the simulated outputs of the current measurement window.
type simStats struct {
	HiShare, Entitled, P99Hi, BusUtil float64
}

func (m *machine) simStats() simStats {
	s := m.sys.Snapshot()
	st := simStats{HiShare: 1, Entitled: 1, BusUtil: s.Window.BusUtilization}
	if cs := s.Class(m.hi); cs != nil && m.twoClass {
		st.HiShare, st.Entitled = cs.Share, cs.EntitledShare
	}
	st.P99Hi = float64(m.sys.ClassTailLatency(m.hi, 99))
	return st
}

// fingerprint hashes the simulated outcome — window metrics, governor
// rates, per-class IPC and latency — leaving out the scheduler's own
// counters, which legitimately differ between kernels.
func (m *machine) fingerprint() string {
	s := m.sys.Snapshot()
	doc := fmt.Sprintf("cycle=%d window=%+v gov=%v", s.Cycle, s.Window, s.GovernorMs())
	for _, c := range s.Classes {
		doc += fmt.Sprintf(" c%d=%v/%v/%v/%v", c.ID, c.Bytes, c.IPC, c.TileIPCs, c.MissLatency)
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(doc)))
}

func (m *machine) checkpoint() ([]byte, error) {
	var buf bytes.Buffer
	if err := m.sys.Checkpoint(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func restoreMachine(ckpt []byte) (*machine, error) {
	sys, err := pabst.Restore(bytes.NewReader(ckpt))
	if err != nil {
		return nil, err
	}
	return &machine{sys: sys}, nil
}

// ---------------------------------------------------------------- exp

// The SPEC proxy subset of fig10-12: a bandwidth-limited and a
// hard-to-schedule proxy against the aggressor, a latency-limited one
// consolidated.
var (
	isolationProxies = []string{"libquantum", "mcf"}
	iaasProxies      = []string{"sphinx3"}
)

// simScale is an experiment scale (warmup, measure, epoch, window).
type simScale = exp.Scale

// benchScale is the scale the figure set and the sweep jobs run at: the
// quick scale with its own warmup and measure windows, registered under
// the name "bench" like any pabstsim scale; div shrinks every cycle count
// of it for the smoke pass. Kernel and Parallel stay at their defaults,
// so a change of defaults shows.
func benchScale(warmup, measure, div uint64) simScale {
	sc := exp.Quick()
	sc.Name = "bench"
	sc.Warmup, sc.Measure = warmup/div, measure/div
	sc.Epoch, sc.Window = sc.Epoch/div, sc.Window/div
	return sc
}

// figTable is one result table in plain form.
type figTable struct {
	Rows map[string]map[string]float64 // row label -> column -> value
	Hash string                        // sha256 of the table's full-precision JSON
}

func plainTable(t *exp.Table) (figTable, error) {
	raw, err := t.JSON()
	if err != nil {
		return figTable{}, err
	}
	ft := figTable{Rows: map[string]map[string]float64{}, Hash: fmt.Sprintf("%x", sha256.Sum256(raw))}
	for _, r := range t.Rows {
		ft.Rows[r.Label] = r.Values
	}
	return ft, nil
}

// runFigure produces one figure the way pabstsim does: fig5/8/9 on
// their trajectory paths, the grids through the registry and the shared
// cache. specs is how many RunSpecs the figure asked the registry for.
func runFigure(ctx context.Context, name string, sc exp.Scale, cache *exp.RunCache) (tbl figTable, specs int, err error) {
	var t *exp.Table
	switch name {
	case "fig5":
		r, err := exp.Fig5Series(sc)
		if err != nil {
			return figTable{}, 0, err
		}
		t = r.Table("Figure 5: proportional allocation 7:3")
	case "fig8":
		r, err := exp.Fig8(sc)
		if err != nil {
			return figTable{}, 0, err
		}
		t = r.Table()
	case "fig9":
		r, err := exp.Fig9(sc)
		if err != nil {
			return figTable{}, 0, err
		}
		t = r.Table()
	default:
		var e exp.Experiment
		switch name {
		case "fig10", "fig12":
			e = exp.NewIsolationExperiment(name, "", isolationProxies, name == "fig12")
		case "fig11":
			e = exp.NewFig11Experiment(iaasProxies)
		case "faults":
			e = exp.NewFaultsExperiment("sat-partition")
		default:
			if e, err = exp.ExperimentByName(name); err != nil {
				return figTable{}, 0, err
			}
		}
		var ss []exp.RunSpec
		if t, ss, _, err = exp.RunExperimentScale(ctx, e, sc, cache); err != nil {
			return figTable{}, 0, err
		}
		specs = len(ss)
	}
	tbl, err = plainTable(t)
	return tbl, specs, err
}

type runCache = exp.RunCache

func newRunCache() *runCache { return exp.NewRunCache() }

func twinDriver() driver {
	rs := exp.RunSpec{Bench: exp.BenchStreams, Scale: "quick"}
	return driver{metric: "twin.solve_us", div: 1000, batch: 10_000, op: func(n int) int {
		for i := 0; i < n; i++ {
			if _, err := exp.PredictSpec(rs, exp.Exec{}); err != nil {
				panic(err)
			}
		}
		return 0
	}}
}

// -------------------------------------------------------------- serve

// jobSpec is a sweep job; it marshals to the REST body's "spec".
type jobSpec = exp.RunSpec

// sweepSpecs lists the 60 distinct jobs of the sweep: 3 benches x 5
// parameter points x 4 policy pairs, all on the named scale. The write
// streams run 12 tiles a class: the warm store keys a machine by its
// generators' names, which do not tell a write stream from a read
// stream, so at the default 16 a wstreams job would restore the warmed
// state of the streams job with the same parameters and policy.
func sweepSpecs(scale string) []jobSpec {
	params := []map[string]uint64{
		{"scalef": 128}, {"scalef": 512}, {"burst": 8}, {"burst": 32}, {"slack": 64},
	}
	var out []jobSpec
	for _, bench := range []string{exp.BenchStreams, exp.BenchChaser, exp.BenchWStreams} {
		for _, p := range params {
			for _, pol := range []string{"pabst+pabst", "bankreg+pabst", "lmsar+pabst", "pabst+dpq"} {
				spec := jobSpec{Bench: bench, Scale: scale, Params: p, Policy: pol}
				if bench == exp.BenchWStreams {
					spec.Load = 12
				}
				out = append(out, spec)
			}
		}
	}
	return out
}

func specKey(s jobSpec) string { return s.Fingerprint() }

// directRun executes a spec on the library path, without the service.
func directRun(ctx context.Context, s jobSpec, sc exp.Scale) (fingerprint string, err error) {
	r, err := s.Run(ctx, exp.Exec{Scales: map[string]exp.Scale{sc.Name: sc}}, exp.RunIO{})
	return r.Fingerprint, err
}

// sweepServer is an in-process serve.Service behind its real handler
// on a loopback listener.
type sweepServer struct {
	svc    *serve.Service
	srv    *http.Server
	served chan error
	url    string
	dir    string
}

func startSweepServer(dir string, sc exp.Scale) (*sweepServer, error) {
	svc, err := serve.New(serve.Config{
		Dir: dir, Workers: 2, QueueDepth: 64,
		Exec: exp.Exec{Scales: map[string]exp.Scale{sc.Name: sc}},
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = svc.Close() // nothing ran; the listen error is the one to report
		return nil, err
	}
	svc.Start()
	s := &sweepServer{svc: svc, srv: &http.Server{Handler: svc.Handler()}, served: make(chan error, 1),
		url: "http://" + ln.Addr().String(), dir: dir}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

func (s *sweepServer) journalBytes() int64 {
	fi, err := os.Stat(filepath.Join(s.dir, "journal.jsonl"))
	if err != nil {
		return 0
	}
	return fi.Size()
}

// stop drains the service, shuts the listener and waits for the serving
// goroutine; drain is how long the graceful drain took.
func (s *sweepServer) stop() (drain time.Duration, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	t0 := time.Now()
	err = s.svc.Drain(ctx)
	drain = time.Since(t0)
	if serr := s.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-s.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	if cerr := s.svc.Close(); err == nil {
		err = cerr
	}
	return drain, err
}

// jobStatus is the part of the REST JobView the client reads.
type jobStatus struct {
	ID          string
	Terminal    bool
	Done        bool
	Error       string
	Fingerprint string
	Submitted   time.Time
	Started     time.Time
	Finished    time.Time
}

func submitBody(s jobSpec) ([]byte, error) {
	return json.Marshal(map[string]any{"spec": s})
}

func parseJobStatus(body []byte) (jobStatus, error) {
	var v serve.JobView
	if err := json.Unmarshal(body, &v); err != nil {
		return jobStatus{}, err
	}
	st := jobStatus{ID: v.ID, Terminal: v.State.Terminal(), Done: v.State == serve.StateDone,
		Error: v.Error, Submitted: v.SubmittedAt}
	if v.Result != nil {
		st.Fingerprint = v.Result.Fingerprint
	}
	if v.StartedAt != nil {
		st.Started = *v.StartedAt
	}
	if v.FinishedAt != nil {
		st.Finished = *v.FinishedAt
	}
	return st, nil
}

// ---------------------------------------------------- isolated drivers

// driver times one layer from outside: op makes n calls into the
// layer's exported functions and returns how many secondary units
// (requests served, cycles skipped) those calls produced. The harness
// reports the median ns per call as metric and per secondary unit as
// metric2, each divided by div when set.
type driver struct {
	metric  string
	metric2 string
	div     float64
	batch   int
	op      func(n int) (secondary int)
}

// sink keeps results of pure calls live so the compiler cannot drop them.
var sink int

// lcg is the drivers' own address and value generator, so the product
// RNG is not part of what they time.
type lcg uint64

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l >> 17)
}

// benchSleeper is a sim.Sleeper with a fixed period. When peer >= 0 its
// own due tick wakes that component a little later — a cross-component
// wake that costs the woken component one dispatch and one re-key.
type benchSleeper struct {
	k      *sim.Kernel
	period uint64
	next   uint64
	peer   int
	wakes  *int
}

func (s *benchSleeper) Tick(now uint64) {
	if now < s.next {
		return // woken early by a peer: nothing due
	}
	s.next = now + s.period
	if s.peer >= 0 {
		s.k.Wake(s.peer, now+100)
		*s.wakes++
	}
}

func (s *benchSleeper) NextEventAt(from uint64) uint64 { return max(from, s.next) }
func (s *benchSleeper) FastForward(from, to uint64)    {}

const simSleepers = 256

// simDrivers: 256 sleepers due every cycle (the sat32 shape, all
// dispatch) and 256 due every ~20k cycles with cross-wakes (the idle256
// shape, all wheel and wake work).
func simDrivers() []driver {
	busy := &sim.Kernel{}
	busy.SetEventMode(1, nil)
	for i := 0; i < simSleepers; i++ {
		busy.RegisterEvent(0, &benchSleeper{k: busy, period: 1, peer: -1})
	}
	idle := &sim.Kernel{}
	idle.SetEventMode(1, nil)
	wakes := 0
	for i := 0; i < simSleepers; i++ {
		idle.RegisterEvent(0, &benchSleeper{k: idle, period: uint64(20_000 + 7*i), next: uint64(1 + 61*i),
			peer: (i + 1) % simSleepers, wakes: &wakes})
	}
	return []driver{
		{metric: "sim.ns_per_dispatch", batch: 100 * simSleepers, op: func(n int) int {
			busy.Run(uint64(n / simSleepers))
			return 0
		}},
		{metric: "sim.ns_per_wake", metric2: "sim.ns_per_skipped_cycle", batch: 40 * simSleepers, op: func(n int) int {
			skipped := idle.Skipped()
			for target := wakes + n; wakes < target; {
				idle.Run(20_000)
			}
			return int(idle.Skipped() - skipped)
		}},
	}
}

func twoClassRegistry() *qos.Registry {
	reg := qos.NewRegistry()
	for _, c := range []struct {
		name   string
		weight uint64
	}{{"hi", 7}, {"lo", 3}} {
		cl := reg.MustAdd(c.name, c.weight, 8)
		for i := 0; i < 16; i++ {
			reg.AttachCPU(cl.ID)
		}
	}
	return reg
}

// dramController is one paper-config channel with the named target
// policy attached; completed reads and served writes recycle their
// packets.
type dramController struct {
	mc   *dram.Controller
	pool mem.Pool
	now  uint64
	pos  [32]uint64
	next int
}

func newDRAMController(target string) *dramController {
	cfg := paper32()
	d := &dramController{}
	mc, err := dram.NewController(0, cfg.DRAM, func(pkt *mem.Packet, doneAt uint64) { d.pool.Put(pkt) })
	if err != nil {
		panic(err)
	}
	mc.SetReleaser(func(pkt *mem.Packet) { d.pool.Put(pkt) })
	sched, arb, err := qospolicy.NewTarget(target, qospolicy.TargetEnv{Params: cfg.PABST, Reg: twoClassRegistry()})
	if err != nil {
		panic(err)
	}
	if sched != dram.SchedFCFS || arb != nil {
		mc.SetScheduler(sched, arb)
	}
	d.mc = mc
	return d
}

// packet returns the next line of one of 32 sequential streams, as the
// 32 stream tiles of sat32 present them to one channel.
func (d *dramController) packet(kind mem.Kind) *mem.Packet {
	s := d.next
	d.next = (d.next + 1) % len(d.pos)
	d.pos[s] += 2
	pkt := d.pool.Get()
	pkt.Addr = mem.Addr(((uint64(s)<<24 | d.pos[s]) << 2) * mem.LineSize)
	pkt.Kind = kind
	pkt.Class = mem.ClassID(s & 1)
	return pkt
}

// ticks advances the controller n cycles with the front read queue (and
// with writes, the write queue too) held full; it returns requests
// served.
func (d *dramController) ticks(n int, writes bool) int {
	before := d.mc.Stats.ReadsServed + d.mc.Stats.WritesServed
	for i := 0; i < n; i++ {
		for d.mc.TryReserveRead() {
			d.mc.ArriveRead(d.packet(mem.Read), d.now)
		}
		for writes && d.mc.TryReserveWrite() {
			d.mc.ArriveWrite(d.packet(mem.Writeback), d.now)
		}
		d.mc.Tick(d.now)
		d.now++
	}
	return int(d.mc.Stats.ReadsServed + d.mc.Stats.WritesServed - before)
}

func dramDrivers() []driver {
	reads, mixed, idle := newDRAMController("pabst"), newDRAMController("pabst"), newDRAMController("pabst")
	out := []driver{
		{metric: "dram.ns_per_tick_busy", metric2: "dram.ns_per_req", batch: 10_000,
			op: func(n int) int { return reads.ticks(n, false) }},
		{metric2: "dram.ns_per_req_write", batch: 10_000,
			op: func(n int) int { return mixed.ticks(n, true) }},
		{metric: "dram.ns_per_tick_idle", batch: 10_000, op: func(n int) int {
			for i := 0; i < n; i++ {
				idle.mc.Tick(idle.now)
				idle.now++
			}
			return 0
		}},
	}
	for _, name := range targetPolicies {
		d := newDRAMController(name)
		out = append(out, driver{metric2: "qospolicy.tgt_ns_per_pick." + name, batch: 10_000,
			op: func(n int) int { return d.ticks(n, false) }})
	}
	return out
}

// cacheDrivers use one L3 slice's geometry with the two-class way
// partition every workload machine applies.
func cacheDrivers() []driver {
	cfg := paper32()
	mk := func() *cache.Cache {
		c := cache.New(cache.Config{SizeBytes: cfg.L3SliceBytes, Ways: cfg.L3Ways})
		c.Partition(0, 0, cfg.L3Ways/2)
		c.Partition(1, cfg.L3Ways/2, cfg.L3Ways/2)
		return c
	}
	const resident = 2048
	line := func(i uint64) mem.Addr { return mem.Addr(i * mem.LineSize) }
	hit, miss, wb := mk(), mk(), mk()
	for i := uint64(0); i < resident; i++ {
		hit.Access(line(i), false, mem.ClassID(i&1))
		wb.Access(line(i), false, mem.ClassID(i&1))
	}
	var hi, mi, wi uint64
	return []driver{
		{metric: "cache.ns_per_access_hit", batch: 20_000, op: func(n int) int {
			for i := 0; i < n; i++ {
				hi++
				hit.Access(line(hi%resident), false, mem.ClassID(hi&1))
			}
			return 0
		}},
		{metric: "cache.ns_per_access_miss", batch: 20_000, op: func(n int) int {
			for i := 0; i < n; i++ {
				mi++
				miss.Access(line(resident+mi), mi&3 == 0, mem.ClassID(mi&1))
			}
			return 0
		}},
		{metric: "cache.ns_per_writeback", batch: 20_000, op: func(n int) int {
			for i := 0; i < n; i++ {
				wi++ // every other writeback finds its line resident
				wb.Writeback(line((wi>>1)%resident+(wi&1)*(1<<30)), mem.ClassID(wi&1))
			}
			return 0
		}},
	}
}

// stubPort is a core's memory port with a fixed miss latency; with
// latency 0 it never answers, so the core's window fills and blocks.
type stubPort struct {
	latency uint64
	pending sim.Ring[stubMiss]
}

type stubMiss struct{ token, at uint64 }

func (p *stubPort) Access(addr mem.Addr, write bool, now, token uint64) (cpu.AccessStatus, uint64) {
	if p.latency > 0 {
		p.pending.PushBack(stubMiss{token, now + p.latency})
	}
	return cpu.AccessPending, 0
}

func cpuDrivers() []driver {
	cfg := paper32()
	mk := func(gen workload.Generator, latency uint64) func(n int) int {
		port := &stubPort{latency: latency}
		core, err := cpu.New(0, cfg.Core, gen, port)
		if err != nil {
			panic(err)
		}
		now := uint64(0)
		return func(n int) int {
			for i := 0; i < n; i++ {
				for {
					m, ok := port.pending.Front()
					if !ok || m.at > now {
						break
					}
					port.pending.PopFront()
					core.CompleteMiss(m.token, now)
				}
				core.Tick(now)
				now++
			}
			return 0
		}
	}
	r := pabst.TileRegion(0)
	return []driver{
		{metric: "cpu.ns_per_tick_busy", batch: 20_000, op: mk(pabst.Stream("stream", r, 128, false), 100)},
		{metric: "cpu.ns_per_tick_blocked", batch: 20_000, op: mk(pabst.Chaser("chaser", r, 8, 1), 0)},
	}
}

func nocDrivers() []driver {
	cfg := paper32()
	mesh, err := noc.New(cfg.NoC)
	if err != nil {
		panic(err)
	}
	var pool mem.Pool
	net, err := noc.NewNetwork(cfg.NoC, cfg.NoCNet, func(pkt *mem.Packet, dst int, now uint64) { pool.Put(pkt) })
	if err != nil {
		panic(err)
	}
	var (
		rng   lcg = 1
		now   uint64
		route uint64
	)
	tiles, nodes := cfg.NumTiles(), uint64(net.NumNodes())
	return []driver{
		{metric: "noc.ns_per_route", batch: 50_000, op: func(n int) int {
			for i := 0; i < n; i++ {
				route++
				sink += mesh.TileToMC(int(route%uint64(tiles)), int(route>>5)%cfg.NumMCs)
			}
			return 0
		}},
		// Uniform traffic at 0.1 flits per node and cycle: one 4-flit
		// data message per node every 40 cycles.
		{metric: "noc.net_ns_per_tick", batch: 10_000, op: func(n int) int {
			for i := 0; i < n; i++ {
				for src := 0; src < int(nodes); src++ {
					if rng.next()%40 != 0 {
						continue
					}
					pkt := pool.Get()
					if !net.TrySend(pkt, src, int(rng.next()%nodes), true) {
						pool.Put(pkt)
					}
				}
				net.Tick(now)
				now++
			}
			return 0
		}},
	}
}

func heartbeat(now uint64, i int, numMCs int) regulate.Heartbeat {
	sat := make([]bool, numMCs)
	sat[i%numMCs] = i%3 == 0
	return regulate.Heartbeat{Now: now, SatAny: i%3 == 0, SatPerMC: sat}
}

func pabstDrivers() []driver {
	cfg := paper32()
	reg := twoClassRegistry()
	gov := ipabst.NewGovernor(cfg.PABST, reg, 0)
	pacer := ipabst.NewPacer(cfg.PABST.BurstCredit)
	pacer.SetPeriod(8)
	arb := ipabst.NewArbiter(reg, cfg.PABST.Slack)
	var (
		epochs, issues int
		pkt            mem.Packet
	)
	out := []driver{
		{metric: "pabst.gov_ns_per_epoch", batch: 20_000, op: func(n int) int {
			for i := 0; i < n; i++ {
				epochs++
				gov.Epoch(heartbeat(uint64(epochs)*machineEpoch, epochs, cfg.NumMCs))
			}
			return 0
		}},
		{metric: "pabst.pacer_ns_per_issue", batch: 50_000, op: func(n int) int {
			for i := 0; i < n; i++ {
				issues++
				if now := uint64(issues) * 4; pacer.CanIssue(now) {
					pacer.OnIssue(now)
				}
			}
			return 0
		}},
		{metric: "pabst.arb_ns_per_pick", batch: 50_000, op: func(n int) int {
			for i := 0; i < n; i++ {
				pkt.Class = mem.ClassID(i & 1)
				arb.OnAccept(&pkt, uint64(i))
				arb.OnPick(&pkt, uint64(i))
			}
			return 0
		}},
	}
	for _, name := range sourcePolicies {
		src, err := qospolicy.NewSource(name, qospolicy.SourceEnv{
			Params: cfg.PABST, Reg: reg, Class: 0, NumMCs: cfg.NumMCs,
			MCOf:              func(a mem.Addr) int { return int(a.LineID()) % cfg.NumMCs },
			PeakBytesPerCycle: cfg.PeakBytesPerCycle(),
		})
		if err != nil {
			panic(err)
		}
		now := uint64(0)
		out = append(out, driver{metric: "qospolicy.src_ns_per_issue." + name, batch: 50_000, op: func(n int) int {
			for i := 0; i < n; i++ {
				if now%machineEpoch == 0 {
					src.Epoch(heartbeat(now, int(now/machineEpoch), cfg.NumMCs))
				}
				if mc := int(now) % cfg.NumMCs; src.CanIssue(now, mc) {
					src.OnIssue(now, mc)
				}
				now++
			}
			return 0
		}})
	}
	return out
}

func workloadDrivers(seed uint64) []driver {
	var out []driver
	for _, name := range generators {
		gen, err := pabst.WorkloadByName(name, pabst.TileRegion(0), seed)
		if err != nil {
			panic(err)
		}
		var op workload.Op
		out = append(out, driver{metric: "workload.ns_per_op." + name, batch: 50_000, op: func(n int) int {
			for i := 0; i < n; i++ {
				gen.Next(&op)
			}
			return 0
		}})
	}
	return out
}

func statsObsDrivers() []driver {
	var (
		h   stats.Hist
		rng lcg = 7
		ev      = obs.Event{Kind: obs.KindGovernor, Unit: 3, M: 4096, DM: 16, Period: 8}
	)
	o := obs.NewObserver(0)
	return []driver{
		{metric: "stats.hist_ns_per_add", batch: 100_000, op: func(n int) int {
			for i := 0; i < n; i++ {
				h.Add(rng.next() % 4096)
			}
			return 0
		}},
		{metric: "obs.ns_per_event", batch: 100_000, op: func(n int) int {
			for i := 0; i < n; i++ {
				ev.Cycle++
				o.Emit(&ev)
			}
			return 0
		}},
	}
}

// layerDrivers lists every isolated driver.
func layerDrivers(seed uint64) []driver {
	var out []driver
	for _, ds := range [][]driver{simDrivers(), dramDrivers(), cacheDrivers(), cpuDrivers(), nocDrivers(),
		pabstDrivers(), workloadDrivers(seed), statsObsDrivers(), {twinDriver()}} {
		out = append(out, ds...)
	}
	return out
}

// registeredPolicies returns the product's policy registry, for the
// test that keeps the declared lists in step with it.
func registeredPolicies() (sources, targets []string) {
	return pabst.SourcePolicies(), pabst.TargetPolicies()
}
