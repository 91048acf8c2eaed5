// Package netsim is the discrete-event network simulator the protocols
// run on — the reproduction's substitute for the UCB/LBNL ns simulator
// the paper used (§6).
//
// A Network joins a topology.Graph, a scoping.Hierarchy and an event
// queue. Protocol agents attach to nodes and exchange packets by
// multicasting to a scope zone: the packet travels the sender-rooted
// shortest-path tree, pruned to the branches that lead to members of the
// zone (administrative scoping), experiencing per-link store-and-forward
// transmission delay, FIFO queueing, propagation latency, and — for
// loss-eligible packets — independent Bernoulli loss per link, exactly the
// loss model the paper assumes. Every Network is one shard's view of a
// Cluster (cluster.go); New builds the single view of a one-shard
// cluster.
package netsim

import (
	"errors"
	"fmt"

	"sharqfec/internal/eventq"
	"sharqfec/internal/fabric"
	"sharqfec/internal/packet"
	"sharqfec/internal/scoping"
	"sharqfec/internal/simrand"
	"sharqfec/internal/telemetry"
	"sharqfec/internal/topology"
)

// Delivery is one packet arriving at a node (an alias of the transport
// seam's type, so protocols run unchanged on the UDP mesh).
type Delivery = fabric.Delivery

// Agent is a protocol endpoint attached to a node. Receive runs on the
// simulation goroutine and must not block; it may send packets and set
// timers.
type Agent = fabric.Agent

// Tap observes every delivery to a session member, for measurement.
type Tap func(now eventq.Time, at topology.NodeID, d Delivery)

// SendTap observes every multicast transmission at its sender, for
// measurements that include a node's own output (e.g. traffic visible at
// the source, Figures 20–21).
type SendTap func(now eventq.Time, from topology.NodeID, zone scoping.ZoneID, pkt packet.Packet)

// ErrUnknownNode is wrapped by MulticastE when the sender is not a node
// of the simulated graph.
var ErrUnknownNode = errors.New("unknown node")

// ErrUnknownZone is wrapped by MulticastE when the destination zone does
// not exist in the scoping hierarchy.
var ErrUnknownZone = errors.New("unknown zone")

// LossModel replaces the default per-link Bernoulli draw for one link
// direction. Drop is consulted once per loss-eligible packet crossing
// the direction and reports whether the packet is lost. Implementations
// own their randomness (typically a dedicated simrand stream), so
// installing a model never perturbs the draws of unaffected links.
type LossModel interface {
	Drop() bool
}

// Network is one shard's view of a simulated scoped-multicast network:
// the agents on the nodes the shard owns, its observers and counters,
// and the event queue its packets and timers run on.
type Network struct {
	Q *eventq.Queue
	G *topology.Graph
	H *scoping.Hierarchy

	agents   []Agent
	taps     []Tap
	sendTaps []SendTap
	// tel, when non-nil, receives a transport event per transmission,
	// delivery and drop. nil (the default) keeps every path untouched.
	tel *telemetry.Bus
	// hopTap, when non-nil, observes every per-link transmission during
	// multicast fan-out (after queueing, before the loss draw): packets
	// lost in flight occupied the wire and are reported; tail-dropped
	// packets never transmitted and are not. nil keeps the path free.
	hopTap HopTap

	// QueueLimit bounds each link direction's transmit backlog in
	// packets; beyond it, packets are tail-dropped (congestion loss).
	// Zero means unbounded (the paper's model: loss is Bernoulli only).
	QueueLimit int

	// cluster routes this view's multicasts through its fan plans and
	// shared link state; topology mutations act cluster-wide. shard is
	// this view's shard index.
	cluster *Cluster
	shard   int32
	// planHopFree and spanHopFree recycle in-flight hop structs, one
	// pool per view (each view's queue runs on a single goroutine at a
	// time, so no locking is needed).
	planHopFree []*planHop
	spanHopFree []*spanHop

	// Counters for coarse validation and benchmarks.
	sent       uint64
	delivered  uint64
	dropped    uint64
	taildrops  uint64
	faultdrops uint64
}

// New creates a network over g and h, drawing loss randomness from src:
// the single view of a one-shard cluster whose events run on q.
func New(q *eventq.Queue, g *topology.Graph, h *scoping.Hierarchy, src *simrand.Source) *Network {
	return newCluster(nil, []*eventq.Queue{q}, g, h, src, make([]int32, g.NumNodes())).nets[0]
}

// Attach binds an agent to a node (joining the session). Passing nil
// detaches.
func (n *Network) Attach(node topology.NodeID, a Agent) {
	n.agents[node] = a
}

// AgentAt returns the agent attached to node, or nil.
func (n *Network) AgentAt(node topology.NodeID) Agent { return n.agents[node] }

// Sched implements fabric.Network over the virtual clock.
func (n *Network) Sched() fabric.Scheduler { return simScheduler{n.Q} }

// Hierarchy implements fabric.Network.
func (n *Network) Hierarchy() *scoping.Hierarchy { return n.H }

// simScheduler adapts the event queue to the fabric.Scheduler interface
// (the concrete *eventq.Timer satisfies fabric.Timer).
type simScheduler struct{ q *eventq.Queue }

func (s simScheduler) Now() eventq.Time { return s.q.Now() }
func (s simScheduler) After(d eventq.Duration, fn func(eventq.Time)) fabric.Timer {
	return s.q.After(d, fn)
}

var _ fabric.Network = (*Network)(nil)

// AddTap registers a delivery observer.
func (n *Network) AddTap(t Tap) { n.taps = append(n.taps, t) }

// AddSendTap registers a transmission observer.
func (n *Network) AddSendTap(t SendTap) { n.sendTaps = append(n.sendTaps, t) }

// SetTelemetry attaches (or, with nil, detaches) a telemetry bus that
// receives packet_sent / packet_delivered / drop events.
func (n *Network) SetTelemetry(b *telemetry.Bus) { n.tel = b }

// HopTap observes one per-link transmission: link index li, direction
// dir (0 = A→B, 1 = B→A) and the packet on the wire. Taps must be
// passive — they run inline on the forwarding path.
type HopTap func(li, dir int, pkt packet.Packet)

// SetHopTap attaches (or, with nil, detaches) a per-link transmission
// observer — the census engine's view of where bytes actually flow.
func (n *Network) SetHopTap(t HopTap) { n.hopTap = t }

// Stats returns (multicasts sent, packets delivered to members, packets
// dropped by link loss).
func (n *Network) Stats() (sent, delivered, dropped uint64) {
	return n.sent, n.delivered, n.dropped
}

// TailDrops returns the number of packets lost to transmit-queue
// overflow (only possible with QueueLimit > 0).
func (n *Network) TailDrops() uint64 { return n.taildrops }

// FaultDrops returns the number of packets discarded because their next
// link was administratively down (only possible after SetLinkUp).
func (n *Network) FaultDrops() uint64 { return n.faultdrops }

// SetLinkUp enables or disables a link mid-simulation, recomputing the
// routing state that depended on it. Packets already in flight past the
// link still arrive (they were on the wire); packets reaching a downed
// link are discarded and counted by FaultDrops. On more than one shard,
// call it only inside a sync barrier.
func (n *Network) SetLinkUp(link int, up bool) { n.cluster.SetLinkUp(link, up) }

// SetHierarchy swaps the scoping hierarchy mid-simulation (membership
// change: a member left or rejoined), invalidating the delivery-set
// caches derived from it. The new hierarchy must use the same ZoneID
// numbering as the old one (scoping.WithoutMember guarantees this).
func (n *Network) SetHierarchy(h *scoping.Hierarchy) { n.cluster.SetHierarchy(h) }

// SetLossModel installs (or, with nil, removes) a loss-model override
// for one direction of a link (dir 0 = A→B, 1 = B→A). Links without a
// model keep the default Bernoulli draw from the graph's loss rates.
func (n *Network) SetLossModel(link, dir int, m LossModel) { n.cluster.SetLossModel(link, dir, m) }

// Tree returns (building if necessary) the shortest-path tree rooted at
// src over the links currently up.
func (n *Network) Tree(src topology.NodeID) *topology.Tree { return n.cluster.tree(src) }

// Multicast sends pkt from node `from` to every member of `zone` (other
// than the sender). Delivery is scheduled through the event queue; the
// call returns immediately. Invalid senders or zones are dropped
// silently (the fabric seam has no error channel); callers that want the
// cause should use MulticastE.
func (n *Network) Multicast(from topology.NodeID, zone scoping.ZoneID, pkt packet.Packet) {
	_ = n.MulticastE(from, zone, pkt)
}

// MulticastE is Multicast with validation: it reports a wrapped
// ErrUnknownNode / ErrUnknownZone instead of panicking on input that a
// public-API caller (custom topologies, scripted fault plans) can get
// wrong. A valid multicast to a zone with no other members is not an
// error; the packet simply reaches nobody.
func (n *Network) MulticastE(from topology.NodeID, zone scoping.ZoneID, pkt packet.Packet) error {
	if from < 0 || int(from) >= n.G.NumNodes() {
		return fmt.Errorf("netsim: multicast from node %d: %w", from, ErrUnknownNode)
	}
	if zone < 0 || int(zone) >= n.H.NumZones() {
		return fmt.Errorf("netsim: multicast to zone %d: %w", zone, ErrUnknownZone)
	}
	n.cluster.multicast(n, from, zone, pkt)
	return nil
}

// pktCorrelation extracts the span-correlation fields from a packet:
// the originating node and the FEC group it concerns (SRM mirrors the
// sequence number into Group). Session packets — and anything else
// without a group — return (NoNode, -1), the Event sentinels.
func pktCorrelation(pkt packet.Packet) (origin topology.NodeID, group int64) {
	switch p := pkt.(type) {
	case *packet.Data:
		return p.Origin, int64(p.Group)
	case *packet.Repair:
		return p.Origin, int64(p.Group)
	case *packet.NACK:
		return p.Origin, int64(p.Group)
	}
	return topology.NoNode, -1
}

// deliver hands an arrived packet, hops links from its sender, to the
// member node's taps, telemetry and agent.
func (n *Network) deliver(now eventq.Time, at topology.NodeID, hops int64, d Delivery) {
	n.delivered++
	for _, tap := range n.taps {
		tap(now, at, d)
	}
	if n.tel.On() {
		origin, group := pktCorrelation(d.Pkt)
		n.tel.Emit(telemetry.Event{
			T: now.Seconds(), Kind: telemetry.KindPacketDelivered, Node: at, Zone: d.Scope,
			Group: group, A: int64(d.Pkt.Kind()), B: int64(d.Pkt.WireSize()),
			Origin: origin, Hops: hops,
		})
	}
	if a := n.agents[at]; a != nil {
		a.Receive(now, d)
	}
}

// emitDrop reports a packet death at node v's inbound link. The drop is
// timestamped with the forwarding decision time (the loss is decided at
// enqueue, before the propagation delay elapses).
func (n *Network) emitDrop(t eventq.Time, kind telemetry.Kind, v topology.NodeID,
	zone scoping.ZoneID, pkt packet.Packet) {

	if !n.tel.On() {
		return
	}
	_, group := pktCorrelation(pkt)
	n.tel.Emit(telemetry.Event{
		T: t.Seconds(), Kind: kind, Node: v, Zone: zone,
		Group: group, A: int64(pkt.Kind()), B: int64(pkt.WireSize()),
	})
}

// OneWayDelay returns the pure propagation latency from a to b along the
// routing tree (no queueing or transmission time) — the ground truth the
// RTT-estimation experiments (Figures 11–13) compare against.
func (n *Network) OneWayDelay(a, b topology.NodeID) eventq.Duration {
	return n.Tree(a).Dist[b]
}
