package fault

import (
	"pabst/internal/sim"
	"pabst/internal/stats"
)

// Injector is the runtime half of a Plan: it answers, deterministically,
// "does this event fault, and how?" for each delivery the simulated
// system is about to make. Each fault domain draws from its own RNG
// stream so that, e.g., enabling NoC faults never perturbs the SAT fault
// sequence of an otherwise identical run.
type Injector struct {
	plan Plan

	satRNG  *sim.RNG
	dramRNG *sim.RNG

	// One NoC stream per sender (see NewInjector).
	nocTile []sim.RNG
	nocMC   []sim.RNG

	counters *stats.Counters
}

// NewInjector builds the runtime for plan under the experiment seed, with
// one NoC fault stream per tile and per memory controller: the draw
// sequence a sender sees depends only on its own injection history,
// never on which other senders ran that cycle, which is what keeps a
// faulted run bit-identical on the event kernel and the reference loop.
// It returns nil when the plan injects nothing, so callers can use a nil
// check as the zero-overhead fast path.
func NewInjector(plan *Plan, seed uint64, tiles, mcs int) *Injector {
	if !plan.Active() {
		return nil
	}
	in := &Injector{
		plan:     *plan,
		satRNG:   sim.NewRNG(seed ^ 0x5A7FA017),
		dramRNG:  sim.NewRNG(seed ^ 0xD3A4FA17),
		nocTile:  make([]sim.RNG, tiles),
		nocMC:    make([]sim.RNG, mcs),
		counters: stats.NewCounters(),
	}
	for i := range in.nocTile {
		in.nocTile[i].Seed(seed ^ 0x40CFA017 ^ (uint64(i)+1)*0x9E3779B97F4A7C15)
	}
	for i := range in.nocMC {
		in.nocMC[i].Seed(seed ^ 0xC0DE40C5 ^ (uint64(i)+1)*0x9E3779B97F4A7C15)
	}
	return in
}

// Counters returns the per-kind injected-fault counts.
func (in *Injector) Counters() *stats.Counters { return in.counters }

// SATDeliver decides the fate of one heartbeat delivery to one tile:
// whether it arrives at all, how late, and with what SAT value. Callers
// must invoke it once per (tile, epoch) in tile order so the random
// stream stays aligned across runs.
func (in *Injector) SATDeliver(tile int, epoch uint64, sat bool) (deliver bool, lag uint64, out bool) {
	if in.plan.partitioned(tile, epoch) {
		in.counters.Inc("sat.partitioned")
		return false, 0, sat
	}
	if p := in.plan.SAT.DropProb; p > 0 && in.satRNG.Float64() < p {
		in.counters.Inc("sat.dropped")
		return false, 0, sat
	}
	lag = in.plan.SAT.DelayCycles
	if j := in.plan.SAT.DelayJitter; j > 0 {
		lag += in.satRNG.Uint64() % (j + 1)
	}
	if lag > 0 {
		in.counters.Inc("sat.delayed")
	}
	if p := in.plan.SAT.FlipProb; p > 0 && in.satRNG.Float64() < p {
		in.counters.Inc("sat.flipped")
		sat = !sat
	}
	return true, lag, sat
}

// DRAMEpoch decides the controller faults for one epoch: a transient
// bank stall and/or a front-end freeze, each expressed as a duration in
// cycles (zero = no fault). Call once per controller per epoch in
// controller order.
func (in *Injector) DRAMEpoch(mc int) (stallCycles, freezeCycles uint64) {
	if p := in.plan.DRAM.StallProb; p > 0 && in.dramRNG.Float64() < p {
		in.counters.Inc("dram.bank-stall")
		stallCycles = in.plan.DRAM.StallCycles
	}
	if p := in.plan.DRAM.FreezeProb; p > 0 && in.dramRNG.Float64() < p {
		in.counters.Inc("dram.front-freeze")
		freezeCycles = in.plan.DRAM.FreezeCycles
	}
	return stallCycles, freezeCycles
}

// StallBank picks the bank a stall lands on.
func (in *Injector) StallBank(banks int) int { return in.dramRNG.Intn(banks) }

// NoCSendTile decides the fate of one injection originating at a tile
// (request toward the L3/fabric): dropped (the sender must retry —
// modeling a CRC-failed flit) or delayed by a latency spike. Draws come
// from the tile's private stream.
func (in *Injector) NoCSendTile(tile int) (drop bool, delay uint64) {
	return in.nocSend(&in.nocTile[tile])
}

// NoCSendMC decides the fate of one response injection at a memory
// controller, drawing from the controller's private stream.
func (in *Injector) NoCSendMC(mc int) (drop bool, delay uint64) {
	return in.nocSend(&in.nocMC[mc])
}

func (in *Injector) nocSend(rng *sim.RNG) (drop bool, delay uint64) {
	if p := in.plan.NoC.DropProb; p > 0 && rng.Float64() < p {
		in.counters.Inc("noc.dropped")
		return true, 0
	}
	if p := in.plan.NoC.DelayProb; p > 0 && rng.Float64() < p {
		in.counters.Inc("noc.delayed")
		return false, in.plan.NoC.DelayCycles
	}
	return false, 0
}
