package soc

import (
	"context"
	"fmt"

	"pabst/internal/config"
	"pabst/internal/dram"
	"pabst/internal/fault"
	"pabst/internal/mem"
	"pabst/internal/noc"
	"pabst/internal/obs"
	"pabst/internal/pabst"
	"pabst/internal/qos"
	"pabst/internal/qospolicy"
	"pabst/internal/regulate"
	"pabst/internal/sim"
	"pabst/internal/stats"
	"pabst/internal/workload"
)

// System is one simulated machine plus its measurement state.
type System struct {
	cfg config.System
	reg *qos.Registry

	kernel *sim.Kernel
	mesh   *noc.Mesh
	net    *noc.Network // nil unless cfg.ModelNoC

	tiles  []*Tile // nil entries for idle tiles
	slices []*Slice
	mcs    []*dram.Controller
	arbs   []dram.Arbiter // parallel to mcs; nil entries for arbiter-free targets
	doors  []*frontDoor

	// pair names the mechanism the machine is wired with, both halves
	// set; the caller resolved it.
	pair qospolicy.Pair

	// mcOut holds MC read responses awaiting injection into the modeled
	// network (ready at the data completion cycle).
	mcOut []sim.DelayQueue[*mem.Packet]

	series *stats.Series

	// epochQ carries heartbeat deliveries lagged by the gossip tree or
	// an injected SAT delay.
	epochQ sim.DelayQueue[epochMsg]

	finalized bool
	satLast   bool
	epochs    uint64

	// faults is the configured fault injector; nil (the common case)
	// means every fault hook is a single pointer check. It is also the
	// one switch for graceful degradation: only a faulted machine arms
	// its governors' watchdogs and resync gossip.
	faults *fault.Injector

	// Observability (see observe.go). obs is nil unless SetObserver armed
	// tracing; satPerMC is the epochTick scratch vector, reused so the
	// epoch hook allocates nothing on the synchronous-delivery path.
	obs      *obs.Observer
	satPerMC []bool
	obsBytes [mem.MaxClasses]uint64 // cumulative class bytes at last emit
	obsMC    []obsMCPrev            // per-controller counters at last emit
	obsFault obsFaultPrev           // fault/degradation counters at last emit

	// Kernel registration (see events.go): per-entity component ids so
	// push sites can wake their targets, and the components by id.
	evEpochID int
	evNetID   int
	evMCID    []int
	evSliceID []int
	evTileID  []int
	evComps   []sim.Sleeper

	// Degradation observability (tracked only when faults are active):
	// per-epoch governor divergence and re-convergence bookkeeping.
	divergeMax     uint64 // max over epochs of (max M − min M) across governors
	divergeEpochs  uint64 // epochs in which governors disagreed on M
	reconvLast     uint64 // length in epochs of the most recent divergence episode
	divergeSince   uint64 // epoch the current episode began (0 = in lockstep)
	divergeCurrent uint64 // divergence entering the current epoch

	// End-to-end L2-miss latency accounting (network injection to
	// response arrival), per class.
	e2eLatSum [mem.MaxClasses]uint64
	e2eLatCnt [mem.MaxClasses]uint64

	// baseLat holds each class's merged tile latency histogram as of the
	// last ResetStats; window percentiles subtract it from the live merge.
	baseLat [mem.MaxClasses]stats.Hist

	base snapshot // counters at the last ResetStats
}

// snapshot captures cumulative counters for measurement windows.
type snapshot struct {
	cycle     uint64
	bytes     [mem.MaxClasses]uint64
	busBusy   uint64
	pending   uint64
	reads     uint64
	writes    uint64
	readLat   uint64
	rowHits   uint64
	e2eLatSum [mem.MaxClasses]uint64
	e2eLatCnt [mem.MaxClasses]uint64
	busPerMC  []uint64
}

// New builds an empty system regulated by the given mechanism pair.
// Attach workloads with Attach, then call Finalize before Run.
func New(cfg config.System, reg *qos.Registry, pair qospolicy.Pair) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mesh, err := noc.New(cfg.NoC)
	if err != nil {
		return nil, err
	}
	s := &System{
		cfg:    cfg,
		reg:    reg,
		pair:   pair,
		kernel: &sim.Kernel{Reference: cfg.Kernel == config.KernelCycle},
		mesh:   mesh,
		tiles:  make([]*Tile, cfg.NumTiles()),
		slices: make([]*Slice, cfg.NumTiles()),
		series: stats.NewSeries(cfg.BWWindow),
		faults: fault.NewInjector(cfg.Faults, cfg.Seed, cfg.NumTiles(), cfg.NumMCs),
	}

	for i := 0; i < cfg.NumMCs; i++ {
		i := i
		mc, err := dram.NewController(i, cfg.DRAM, func(pkt *mem.Packet, doneAt uint64) {
			s.deliverResponse(pkt, i, doneAt)
		})
		if err != nil {
			return nil, err
		}
		mc.SetReleaser(s.releaseWB)
		sched, arb, err := qospolicy.NewTarget(pair.Target, qospolicy.TargetEnv{Params: cfg.PABST, Reg: reg})
		if err != nil {
			return nil, err
		}
		mc.SetScheduler(sched, arb)
		s.arbs = append(s.arbs, arb)
		s.mcs = append(s.mcs, mc)
		d := &frontDoor{mc: mc}
		// Pre-size the waiting rooms to their common-case occupancy:
		// parked reads mirror the controller's front queue, and the
		// in-flight inbox is bounded by the tiles' aggregate MSHR count
		// (rare overflow beyond these still grows on demand).
		for c := range d.reads {
			d.reads[c].Grow(cfg.DRAM.FrontReadQ)
		}
		d.writes.Grow(cfg.DRAM.FrontWriteQ)
		d.inbox.Grow(cfg.NumTiles() * cfg.MaxMSHRs / cfg.NumMCs)
		s.doors = append(s.doors, d)
	}

	for i := 0; i < cfg.NumTiles(); i++ {
		s.slices[i] = newSlice(s, i)
	}
	if cfg.ModelNoC {
		net, err := noc.NewNetwork(cfg.NoC, cfg.NoCNet, s.netDeliver)
		if err != nil {
			return nil, err
		}
		s.net = net
		s.mcOut = make([]sim.DelayQueue[*mem.Packet], cfg.NumMCs)
	}
	return s, nil
}

// netDeliver routes a message ejected by the modeled network to its
// endpoint: memory-controller nodes enter the front door's inbox, ready
// this cycle (the door parks it in its own tick, and same-cycle pushes
// pop in push order); tile nodes carry either responses (to the tile) or
// demand requests (to the tile's L3 slice).
func (s *System) netDeliver(pkt *mem.Packet, dst int, now uint64) {
	if mc := dst - s.cfg.NumTiles(); mc >= 0 {
		s.doors[mc].inbox.Push(pkt, now)
		s.wakeMC(mc, now) // ejection (net class) precedes the MC class
		return
	}
	if pkt.Resp {
		s.tiles[dst].inbox.Push(pkt, now)
		s.wakeTile(dst, now)
		return
	}
	s.slices[dst].inbox.Push(pkt, now)
	s.wakeSlice(dst, now)
}

// Config returns the system configuration.
func (s *System) Config() config.System { return s.cfg }

// Pair returns the mechanism pair the system was wired with.
func (s *System) Pair() qospolicy.Pair { return s.pair }

// Series returns the per-class bandwidth time series.
func (s *System) Series() *stats.Series { return s.series }

// Now returns the current cycle.
func (s *System) Now() uint64 { return s.kernel.Now() }

// Attach places a workload generator on a tile under a QoS class. The
// tile must be free; the class must exist in the registry.
func (s *System) Attach(tile int, class mem.ClassID, gen workload.Generator) error {
	if s.finalized {
		return fmt.Errorf("soc: Attach after Finalize")
	}
	if tile < 0 || tile >= len(s.tiles) {
		return fmt.Errorf("soc: tile %d out of range", tile)
	}
	if s.tiles[tile] != nil {
		return fmt.Errorf("soc: tile %d already attached", tile)
	}
	t, err := newTile(s, tile, class, gen)
	if err != nil {
		return err
	}
	s.tiles[tile] = t
	s.reg.AttachCPU(class)
	return nil
}

// Finalize applies L3 partitions, wires the epoch machinery, and locks
// the configuration. Classes are granted contiguous way ranges in ID
// order per their L3Ways allocations.
func (s *System) Finalize() error {
	if s.finalized {
		return fmt.Errorf("soc: already finalized")
	}
	way := 0
	for _, c := range s.reg.Classes() {
		if c.L3Ways == 0 {
			continue
		}
		if way+c.L3Ways > s.cfg.L3Ways {
			return fmt.Errorf("soc: class %s needs ways [%d,%d) beyond %d L3 ways",
				c.Name, way, way+c.L3Ways, s.cfg.L3Ways)
		}
		for _, sl := range s.slices {
			sl.cache.Partition(c.ID, way, c.L3Ways)
		}
		way += c.L3Ways
	}

	ep := s.cfg.PABST.EpochCycles
	s.satPerMC = make([]bool, len(s.mcs))
	s.kernel.Every(ep, ep, s.epochTick)
	s.kernel.Every(s.cfg.BWWindow, s.cfg.BWWindow, s.sampleTick)
	s.registerEventComps()
	s.finalized = true
	return nil
}

// epochMsg is one delayed heartbeat delivery (gossip-tree lag or an
// injected SAT delay fault).
type epochMsg struct {
	tile   int
	sat    bool
	perMC  []bool
	resync bool
	gossip uint64
}

// epochTick distributes the heartbeat: collect every MC's saturation
// monitor, OR them (the global wired-OR line), and deliver both the OR
// and the per-controller vector to every governor — synchronously, or
// lagged by the gossip tree (Section III-D: lockstep only needs to hold
// at a timescale much smaller than an epoch).
//
// When a fault plan is active, each delivery may additionally be
// dropped, delayed, corrupted, or partitioned away by the injector; on
// a machine with global-lane governors the heartbeat then also carries
// resynchronization gossip (the max M observed across governors)
// whenever the monitors have diverged, so healed governors re-converge
// to lockstep within pabst.ResyncWithin epochs. The gossip carries one
// scalar M, so per-controller lanes get none.
func (s *System) epochTick(now uint64) {
	sat := false
	perMC := s.satPerMC // scratch: synchronous deliveries read it in place
	for i, mc := range s.mcs {
		perMC[i] = mc.EpochSaturated()
		if perMC[i] {
			sat = true
		}
	}
	s.satLast = sat
	s.epochs++
	s.reg.RollDemand() // close the demand-feedback window before governors read it

	resync, gossip := false, uint64(0)
	if s.faults != nil {
		gossip = s.observeDivergence()
		resync = !s.cfg.PABST.PerMCGovernors && s.divergeCurrent > 0
		// Injected controller faults land at epoch granularity.
		for i, mc := range s.mcs {
			stall, freeze := s.faults.DRAMEpoch(i)
			if stall > 0 {
				mc.StallBank(s.faults.StallBank(s.cfg.DRAM.Banks), now+stall)
			}
			if freeze > 0 {
				mc.Freeze(now + freeze)
			}
			if stall > 0 || freeze > 0 {
				s.dirtyMC(i)
			}
		}
	}

	fanout := s.cfg.PABST.GossipFanout
	hop := uint64(s.cfg.NoC.RouterDelay + s.cfg.NoC.LinkDelay)
	if hop == 0 {
		hop = 1
	}
	// Delayed messages outlive this epoch while the scratch vector is
	// rewritten at the next boundary, so they carry a copy — one per
	// epoch, shared read-only by every message of that epoch.
	var lagged []bool
	for id, t := range s.tiles {
		if t == nil {
			continue
		}
		tileSat, lag := sat, uint64(0)
		if s.faults != nil {
			deliver, faultLag, out := s.faults.SATDeliver(id, s.epochs, sat)
			if !deliver {
				continue // lost heartbeat; the governor's watchdog copes
			}
			tileSat, lag = out, faultLag
		}
		if fanout >= 2 {
			// Hierarchical distribution: the heartbeat hops down a
			// fanout-ary tree rooted at tile 0, so a tile's delivery lags
			// by its tree depth times the mesh hop latency (a few tens of
			// cycles on 1024 tiles, well inside the Section III-D slack).
			lag += gossipDepth(id, fanout) * hop
		}
		if lag == 0 {
			t.src.Epoch(regulate.Heartbeat{Now: now, SatAny: tileSat, SatPerMC: perMC, Resync: resync, GossipM: gossip})
			// The heartbeat may create earlier work for a sleeping tile
			// (token refills, resync resets), so it must be re-keyed
			// after the hook barrier.
			s.dirtyTile(id)
			continue
		}
		if lagged == nil {
			lagged = append([]bool(nil), perMC...)
		}
		s.epochQ.Push(epochMsg{tile: id, sat: tileSat, perMC: lagged, resync: resync, gossip: gossip}, now+lag)
		s.dirtyEpochQ()
	}

	s.emitEpoch(now, sat)
}

// observeDivergence samples every governor's multipliers entering this
// epoch, lane by lane, maintains the divergence/re-convergence
// bookkeeping on the worst lane's spread across tiles, and returns the
// max observed M (the resynchronization gossip value).
func (s *System) observeDivergence() uint64 {
	spread, gossip := uint64(0), uint64(0)
	for lane := 0; ; lane++ {
		minM, maxM, sampled := ^uint64(0), uint64(0), false
		for _, t := range s.tiles {
			if t == nil {
				continue
			}
			if g, ok := t.src.(*pabst.Governor); ok && lane < g.Lanes() {
				m := g.Monitor(lane).M()
				minM, maxM, sampled = min(minM, m), max(maxM, m), true
			}
		}
		if !sampled {
			break
		}
		spread, gossip = max(spread, maxM-minM), max(gossip, maxM)
	}
	s.divergeCurrent = spread
	if s.divergeCurrent > 0 {
		s.divergeEpochs++
		if s.divergeCurrent > s.divergeMax {
			s.divergeMax = s.divergeCurrent
		}
		if s.divergeSince == 0 {
			s.divergeSince = s.epochs
		}
	} else if s.divergeSince != 0 {
		s.reconvLast = s.epochs - s.divergeSince
		s.divergeSince = 0
	}
	return gossip
}

func (s *System) sampleTick(now uint64) {
	var cum [mem.MaxClasses]uint64
	for _, mc := range s.mcs {
		for c := range cum {
			cum[c] += mc.Stats.BytesByClass[c]
		}
	}
	s.series.Observe(now, &cum)
}

// drainEpochQ delivers due delayed heartbeats (gossip lag, injected SAT
// delays).
func (s *System) drainEpochQ(now uint64) {
	for {
		msg, ok := s.epochQ.Pop(now)
		if !ok {
			break
		}
		if t := s.tiles[msg.tile]; t != nil {
			t.src.Epoch(regulate.Heartbeat{
				Now: now, SatAny: msg.sat, SatPerMC: msg.perMC,
				Resync: msg.resync, GossipM: msg.gossip,
			})
			// A heartbeat changes only the tile's source regulator: it
			// can refill issue tokens, reset pacers or move the watchdog
			// deadline. So the tile is woken at the next event of its new
			// state, if any: a tile with no queued miss, no core work and
			// no response in flight sleeps through its heartbeats. The
			// epoch class drains before the tile class, so a wake at now
			// lands exactly when the reference loop would service the
			// refill.
			if at := t.NextEventAt(now); at != sim.NoEvent {
				s.wakeTile(msg.tile, at)
			}
		}
	}
}

// netTick advances the modeled fabric one cycle and injects completed MC
// responses, retrying next cycle on injection backpressure.
func (s *System) netTick(now uint64) {
	s.net.Tick(now)
	for i := range s.mcOut {
		for {
			pkt, at, ok := s.mcOut[i].Peek()
			if !ok || at > now {
				break
			}
			if !s.net.TrySend(pkt, s.net.MCNode(i), s.net.TileNode(pkt.SrcTile), true) {
				break
			}
			s.mcOut[i].Pop(now)
		}
	}
}

// releaseWB returns a served writeback packet to its origin slice's
// pool.
func (s *System) releaseWB(pkt *mem.Packet) {
	s.slices[pkt.SrcTile].wbPool.Put(pkt)
}

// deliverResponse routes a completed read from MC mc back to its source
// tile: over the latency-only mesh, or queued for injection into the
// modeled network at its data completion cycle.
func (s *System) deliverResponse(pkt *mem.Packet, mcID int, doneAt uint64) {
	pkt.Resp = true
	if s.net != nil {
		s.mcOut[mcID].Push(pkt, doneAt)
		s.wakeNet(s.nextCycle(doneAt)) // MC class follows the net class
		return
	}
	lat := uint64(s.mesh.TileToMC(pkt.SrcTile, mcID))
	if s.faults != nil {
		// On the latency-only fabric both NoC fault classes appear as
		// extra response latency: a spike directly, a drop as the
		// retransmission round trip. The draw comes from this
		// controller's own stream.
		if drop, delay := s.faults.NoCSendMC(mcID); drop {
			lat += 2 * uint64(s.mesh.TileToMC(pkt.SrcTile, mcID))
		} else {
			lat += delay
		}
	}
	s.tiles[pkt.SrcTile].inbox.Push(pkt, doneAt+lat)
	s.wakeTile(pkt.SrcTile, doneAt+lat)
}

// Run advances the system by cycles. Finalize must have been called.
func (s *System) Run(cycles uint64) {
	s.RunContext(context.Background(), cycles)
}

// RunContext advances the system by up to cycles, checking ctx for
// cancellation at epoch boundaries, and returns how many cycles were
// actually simulated plus ctx.Err() when it stopped early. The clock
// advances exactly as an uninterrupted Run would — the kernel already
// visits every epoch boundary to fire the heartbeat hook, so chunking
// there changes nothing but where the loop can stop.
func (s *System) RunContext(ctx context.Context, cycles uint64) (uint64, error) {
	if !s.finalized {
		panic("soc: Run before Finalize")
	}
	ep := s.cfg.PABST.EpochCycles
	if ep == 0 {
		ep = cycles
	}
	done := uint64(0)
	for done < cycles {
		if err := ctx.Err(); err != nil {
			return done, err
		}
		step := cycles - done
		if rem := ep - s.kernel.Now()%ep; rem < step {
			step = rem
		}
		s.kernel.Run(step)
		done += step
	}
	return done, nil
}

// Warmup runs cycles and then resets measurement state.
func (s *System) Warmup(cycles uint64) {
	s.WarmupContext(context.Background(), cycles)
}

// WarmupContext runs up to cycles under ctx and, only if the warmup ran
// to completion, resets measurement state. A canceled warmup leaves the
// counters untouched so the partial progress is still inspectable.
func (s *System) WarmupContext(ctx context.Context, cycles uint64) (uint64, error) {
	done, err := s.RunContext(ctx, cycles)
	if err == nil {
		s.ResetStats()
	}
	return done, err
}

// sliceOf hashes a line to its L3 slice. A multiplicative hash spreads
// strided streams across slices and channels.
func (s *System) sliceOf(addr mem.Addr) int {
	return int(mix(addr.LineID()) % uint64(len(s.slices)))
}

// mcOf hashes a line to its memory controller. A different mix constant
// decorrelates it from slice selection.
func (s *System) mcOf(addr mem.Addr) int {
	return MCIndex(addr, len(s.mcs))
}

// MCIndex is the channel hash as a pure function of address and channel
// count: the same mapping mcOf applies inside a built system. Exposing
// it lets experiments and workload filters target a specific channel
// from configuration alone, without a circular dependency on the built
// system.
func MCIndex(addr mem.Addr, numMCs int) int {
	return int(mix(addr.LineID()^0xABCD1234DEADBEEF) % uint64(numMCs))
}

// wbChargeClass applies the Section V-C writeback accounting policy.
func (s *System) wbChargeClass(demander, owner mem.ClassID) mem.ClassID {
	switch s.cfg.WBCharge {
	case qos.ChargeOwner:
		return owner
	case qos.ChargeFixed:
		return s.cfg.WBFixedClass
	default:
		return demander
	}
}

// gossipDepth returns a tile's depth in the fanout-ary heartbeat
// distribution tree rooted at tile 0.
func gossipDepth(id, fanout int) uint64 {
	var d uint64
	for id > 0 {
		id = (id - 1) / fanout
		d++
	}
	return d
}

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	return x
}
