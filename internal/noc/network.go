package noc

import (
	"fmt"

	"pabst/internal/mem"
	"pabst/internal/sim"
)

// Network is the optional contention-modeled mesh: store-and-forward
// routers with bounded per-port input queues, XY (dimension-order)
// routing, round-robin output arbitration, and multi-cycle link occupancy
// for data-bearing messages.
//
// The paper's evaluation assumes the interconnect is "appropriately
// provisioned" and models latency only; this component exists to test
// that assumption — with realistic link bandwidth the PABST results
// should be unchanged, and with starved links the bottleneck visibly
// moves into the fabric.
//
// Node addressing: tiles are nodes [0, NumTiles); memory controllers are
// nodes [NumTiles, NumTiles+NumMCs).
type Network struct {
	cfg     Config
	mesh    *Mesh
	deliver func(pkt *mem.Packet, dst int, now uint64)

	routers []router
	// nodeRouter maps a node to its router index; MCs attach to the
	// edge router nearest their position.
	nodeRouter []int

	queueCap int
	dataFlit int // link cycles per data-bearing message

	// Stats. Delivered/TotalHops are written only by Tick (sequential);
	// inject failures are tallied per router (see router.injectFails) so
	// concurrent senders attached to different routers never share a
	// counter word.
	Delivered uint64
	TotalHops uint64
}

const (
	portLocal = iota
	portEast
	portWest
	portNorth
	portSouth
	numPorts
)

type netMsg struct {
	pkt     *mem.Packet
	dst     int // destination node
	flits   int
	readyAt uint64 // earliest cycle this message may move again
}

type router struct {
	x, y        int
	in          [numPorts]sim.Ring[netMsg]
	busy        [numPorts]uint64 // output port busy-until cycle
	rrNext      int
	injectFails uint64
	// inFlight counts messages currently queued at this router. Kept
	// per router (senders inject concurrently at distinct routers) and
	// summed on demand by Pending/NextEventAt.
	inFlight int
}

// NetParams tunes the modeled network.
type NetParams struct {
	// QueueCap bounds each router input port's queue, in messages.
	QueueCap int
	// DataFlits is the link occupancy, in cycles, of a message carrying
	// a cache line (command-only messages occupy one cycle). A 16 B/cyc
	// link moves a 64 B line in 4 cycles.
	DataFlits int
}

// DefaultNetParams returns a realistically provisioned mesh: 4-deep
// queues and 16 B/cycle links.
func DefaultNetParams() NetParams { return NetParams{QueueCap: 4, DataFlits: 4} }

// maxNetParam bounds both parameters: every router port may grow to
// QueueCap messages, and a link that takes more than 1024 cycles per
// cache line is a stall, not a provisioning point.
const maxNetParam = 1 << 10

// Validate reports parameter errors.
func (p NetParams) Validate() error {
	if p.QueueCap <= 0 || p.DataFlits <= 0 || p.QueueCap > maxNetParam || p.DataFlits > maxNetParam {
		return fmt.Errorf("noc: network params outside [1, %d]: %+v", maxNetParam, p)
	}
	return nil
}

// NewNetwork builds the router fabric over the mesh geometry. deliver is
// invoked when a message reaches its destination node.
func NewNetwork(cfg Config, params NetParams, deliver func(pkt *mem.Packet, dst int, now uint64)) (*Network, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	mesh, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if deliver == nil {
		return nil, fmt.Errorf("noc: nil deliver")
	}
	n := &Network{
		cfg:      cfg,
		mesh:     mesh,
		deliver:  deliver,
		queueCap: params.QueueCap,
		dataFlit: params.DataFlits,
	}
	// One router per tile.
	n.routers = make([]router, cfg.Cols*cfg.Rows)
	for i := range n.routers {
		n.routers[i].x = i % cfg.Cols
		n.routers[i].y = i / cfg.Cols
	}
	// Node -> router attachment.
	n.nodeRouter = make([]int, cfg.Cols*cfg.Rows+cfg.NumMCs)
	for t := 0; t < cfg.Cols*cfg.Rows; t++ {
		n.nodeRouter[t] = t
	}
	for m := 0; m < cfg.NumMCs; m++ {
		x, y := mesh.MCCoord(m)
		// Clamp the off-grid edge coordinate onto the nearest row.
		if y < 0 {
			y = 0
		}
		if y >= cfg.Rows {
			y = cfg.Rows - 1
		}
		n.nodeRouter[cfg.Cols*cfg.Rows+m] = y*cfg.Cols + x
	}
	return n, nil
}

// NumNodes returns tile + MC node count.
func (n *Network) NumNodes() int { return len(n.nodeRouter) }

// TileNode returns the node id of a tile.
func (n *Network) TileNode(tile int) int { return tile }

// MCNode returns the node id of a memory controller.
func (n *Network) MCNode(mc int) int { return n.cfg.Cols*n.cfg.Rows + mc }

// TrySend injects a message at src's local port. It returns false when
// the local input queue is full (the sender must retry), providing the
// backpressure that makes link bandwidth a real resource. TrySend only
// touches src's own router.
func (n *Network) TrySend(pkt *mem.Packet, src, dst int, carriesData bool) bool {
	r := &n.routers[n.nodeRouter[src]]
	if r.in[portLocal].Len() >= n.queueCap {
		r.injectFails++
		return false
	}
	flits := 1
	if carriesData {
		flits = n.dataFlit
	}
	r.in[portLocal].PushBack(netMsg{pkt: pkt, dst: dst, flits: flits})
	r.inFlight++
	return true
}

// routePort picks the XY output port at router ri for destination router
// dr, or portLocal when arrived.
func (n *Network) routePort(ri, dr int) int {
	a, b := &n.routers[ri], &n.routers[dr]
	switch {
	case b.x > a.x:
		return portEast
	case b.x < a.x:
		return portWest
	case b.y > a.y:
		return portSouth
	case b.y < a.y:
		return portNorth
	default:
		return portLocal
	}
}

// neighbor returns the router index in the given direction.
func (n *Network) neighbor(ri, port int) int {
	switch port {
	case portEast:
		return ri + 1
	case portWest:
		return ri - 1
	case portSouth:
		return ri + n.cfg.Cols
	case portNorth:
		return ri - n.cfg.Cols
	default:
		panic("noc: neighbor of local port")
	}
}

// Tick advances every router one cycle. Each router forwards at most one
// message per output port per cycle (subject to multi-cycle link
// occupancy), input ports are drained round-robin, and a hop costs
// RouterDelay+LinkDelay cycles of pipeline latency folded into the link
// busy time.
func (n *Network) Tick(now uint64) {
	hop := uint64(n.cfg.RouterDelay + n.cfg.LinkDelay)
	if hop == 0 {
		hop = 1
	}
	for ri := range n.routers {
		r := &n.routers[ri]
		// Round-robin over input ports; each output port grants at most
		// one message per cycle.
		var granted [numPorts]bool
		for k := 0; k < numPorts; k++ {
			p := (r.rrNext + k) % numPorts
			q := &r.in[p]
			if q.Len() == 0 {
				continue
			}
			msg, _ := q.Front()
			if msg.readyAt > now {
				continue
			}
			dr := n.nodeRouter[msg.dst]
			out := n.routePort(ri, dr)
			if out == portLocal {
				// Ejection: unbounded, the endpoint absorbs it.
				q.PopFront()
				r.inFlight--
				n.Delivered++
				n.deliver(msg.pkt, msg.dst, now)
				continue
			}
			if granted[out] || r.busy[out] > now {
				continue
			}
			next := &n.routers[n.neighbor(ri, out)]
			inPort := oppositePort(out)
			if next.in[inPort].Len() >= n.queueCap {
				continue // backpressure
			}
			q.PopFront()
			r.inFlight--
			granted[out] = true
			r.busy[out] = now + hop*uint64(msg.flits)
			msg.readyAt = now + hop*uint64(msg.flits)
			next.in[inPort].PushBack(msg)
			next.inFlight++
			n.TotalHops++
		}
		r.rrNext = (r.rrNext + 1) % numPorts
	}
}

func oppositePort(p int) int {
	switch p {
	case portEast:
		return portWest
	case portWest:
		return portEast
	case portNorth:
		return portSouth
	case portSouth:
		return portNorth
	default:
		panic("noc: opposite of local port")
	}
}

// InjectFailures sums the per-router inject-failure tallies. Call from
// sequential contexts only.
func (n *Network) InjectFailures() uint64 {
	var total uint64
	for ri := range n.routers {
		total += n.routers[ri].injectFails
	}
	return total
}

// Pending returns the number of messages currently inside the fabric.
func (n *Network) Pending() int {
	total := 0
	for ri := range n.routers {
		total += n.routers[ri].inFlight
	}
	return total
}

// NextEventAt implements the kernel's sleep contract for the fabric: a
// network with any message in flight must tick every cycle (queue
// progress, backpressure, and link occupancy all evolve per cycle); an
// empty fabric has no event of its own — its next work arrives with the
// next injection, which the injector announces.
func (n *Network) NextEventAt(from uint64) uint64 {
	if n.Pending() > 0 {
		return from
	}
	return sim.NoEvent
}

// FastForward accounts for skipped cycles on an empty fabric: a tick
// with no messages does nothing but advance every router's round-robin
// pointer, so replay exactly that. (busy windows need no catch-up — they
// are absolute cycle numbers that simply expire.)
func (n *Network) FastForward(from, to uint64) {
	span := int((to - from) % numPorts)
	for ri := range n.routers {
		r := &n.routers[ri]
		r.rrNext = (r.rrNext + span) % numPorts
	}
}
