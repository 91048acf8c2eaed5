package netsim

// Independent oracles for cluster forwarding: shortest-path trees
// computed straight from the graph (topology.Graph.SPFTree), with no
// fan plan, span or event queue in between.

import (
	"fmt"
	"sort"
	"testing"

	"sharqfec/internal/eventq"
	"sharqfec/internal/packet"
	"sharqfec/internal/scoping"
	"sharqfec/internal/simrand"
	"sharqfec/internal/telemetry"
	"sharqfec/internal/topology"
)

// oracleArrival is one expected or observed delivery.
type oracleArrival struct {
	t    eventq.Time
	node topology.NodeID
	from topology.NodeID
	seq  uint32
}

func sortArrivals(a []oracleArrival) {
	sort.Slice(a, func(i, j int) bool {
		x, y := a[i], a[j]
		if x.t != y.t {
			return x.t < y.t
		}
		if x.node != y.node {
			return x.node < y.node
		}
		return x.seq < y.seq
	})
}

// oracleSend is one multicast the oracle test issues.
type oracleSend struct {
	at   eventq.Time
	from topology.NodeID
	zone scoping.ZoneID
	seq  uint32
}

// spfArrivals is the oracle: a packet sent at s.at reaches every other
// member of s.zone along the SPF tree rooted at the sender, each link
// adding its transmission time and then its latency (no link queues,
// no loss).
func spfArrivals(g *topology.Graph, h *scoping.Hierarchy, s oracleSend, pkt packet.Packet) []oracleArrival {
	tree := g.SPFTree(s.from)
	var out []oracleArrival
	for _, m := range h.Members(s.zone) {
		if m == s.from || tree.Parent[m] < 0 {
			continue
		}
		var path []int // links from m up to the sender
		for v := m; v != s.from; v = tree.Parent[v] {
			path = append(path, tree.ParentLink[v])
		}
		t := s.at
		for i := len(path) - 1; i >= 0; i-- {
			link := g.Link(path[i])
			t = t.Add(eventq.Duration(float64(pkt.WireSize()*8) / link.Bandwidth))
			t = t.Add(link.Latency)
		}
		out = append(out, oracleArrival{t: t, node: m, from: s.from, seq: s.seq})
	}
	return out
}

// losslessMeshSpec is a zero-loss non-tree graph: a flat fan-out with
// lateral router↔router links, so the cluster builds per-source
// Dijkstra plans.
func losslessMeshSpec() *topology.Spec {
	spec := topology.FlatFanout(topology.FlatParams{Routers: 6, ReceiversPerRouter: 20})
	for r := 0; r < 3; r++ {
		a := topology.NodeID(1 + r*21)
		b := topology.NodeID(1 + (r+3)*21)
		spec.Graph.AddLink(a, b, 45e6, 0.020, 0)
	}
	spec.Name = "flat-mesh"
	return spec
}

// TestClusterMatchesSPFOracle checks every delivery time of the cluster
// against the SPF oracle on lossless specs, at one and three shards.
// The source multicasts twelve packets to the root zone (the span flood
// on the tree, a Dijkstra plan on the mesh) and then one into every
// zone (on the tree, zones whose span does not contain the source take
// the tree-climb plan). Sends are 31 ms apart, far longer than any
// packet's transmission time, so no link ever queues.
func TestClusterMatchesSPFOracle(t *testing.T) {
	specs := []*topology.Spec{
		topology.PowerLawISP(topology.PowerLawParams{PoPs: 5, Subscribers: 80, Seed: 9}),
		losslessMeshSpec(),
	}
	for _, spec := range specs {
		for _, k := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/shards=%d", spec.Name, k), func(t *testing.T) {
				checkSPFOracle(t, spec, k)
			})
		}
	}
}

func checkSPFOracle(t *testing.T, spec *topology.Spec, k int) {
	for i := 0; i < spec.Graph.NumLinks(); i++ {
		if l := spec.Graph.Link(i); l.LossAB != 0 || l.LossBA != 0 {
			t.Fatalf("link %d carries loss (%g, %g); the oracle needs a lossless spec", i, l.LossAB, l.LossBA)
		}
	}
	g := spec.Graph.Clone()
	h, err := scoping.Build(spec.Zones)
	if err != nil {
		t.Fatal(err)
	}
	owner, lookahead := topology.PartitionByZone(g, spec.Zones, k)
	grp := eventq.NewShardGroup(k, lookahead)
	c, err := NewCluster(grp, g, h, simrand.New(7), owner)
	if err != nil {
		t.Fatal(err)
	}

	var sends []oracleSend
	for i := 0; i < 12; i++ {
		sends = append(sends, oracleSend{at: eventq.Time(0.05 + 0.031*float64(i)), from: spec.Source, zone: h.Root(), seq: uint32(i)})
	}
	for z := 1; z < h.NumZones(); z++ {
		sends = append(sends, oracleSend{at: eventq.Time(1 + 0.031*float64(z)), from: spec.Source, zone: scoping.ZoneID(z), seq: uint32(100 + z)})
	}
	pkt := func(s oracleSend) packet.Packet {
		return &packet.Data{Origin: s.from, Seq: s.seq, Payload: make([]byte, 512)}
	}

	perNode := make([][]oracleArrival, g.NumNodes())
	for _, m := range spec.Members() {
		v := m
		c.NetFor(v).Attach(v, agentFunc(func(now eventq.Time, d Delivery) {
			perNode[v] = append(perNode[v], oracleArrival{t: now, node: v, from: d.From, seq: d.Pkt.(*packet.Data).Seq})
		}))
	}
	var want []oracleArrival
	for _, s := range sends {
		s := s
		grp.Queue(c.Owner(s.from)).At(s.at, func(eventq.Time) {
			c.NetFor(s.from).Multicast(s.from, s.zone, pkt(s))
		})
		want = append(want, spfArrivals(g, h, s, pkt(s))...)
	}
	grp.Run(10)

	var got []oracleArrival
	for _, rs := range perNode {
		got = append(got, rs...)
	}
	sortArrivals(got)
	sortArrivals(want)
	if len(got) != len(want) {
		t.Fatalf("%d deliveries, oracle expects %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery %d = %+v, oracle %+v", i, got[i], want[i])
		}
	}

	// Every forwarding path the test claims to cover was taken.
	if c.isTree {
		if len(c.spans) == 0 || len(c.plans) == 0 {
			t.Errorf("tree spec built %d spans and %d climb plans; want both", len(c.spans), len(c.plans))
		}
	} else if len(c.trees) == 0 || len(c.plans) == 0 {
		t.Errorf("mesh spec built %d SPF trees and %d plans; want both", len(c.trees), len(c.plans))
	}
}

// agentFunc adapts a closure to the Agent interface.
type agentFunc func(now eventq.Time, d Delivery)

func (f agentFunc) Receive(now eventq.Time, d Delivery) { f(now, d) }

// TestDeliveredHopsMatchSPF checks the Hops of every packet_delivered
// event against the hop distance in the sender's SPF tree, on Figure 10
// (a mesh: fan plans) and on a balanced tree (zone spans), and that the
// sent, delivered and lost events agree with the network's counters.
func TestDeliveredHopsMatchSPF(t *testing.T) {
	cases := []struct {
		spec   *topology.Spec
		isTree bool // spans on a tree, fan plans on a mesh
	}{
		{topology.Figure10(topology.Figure10Params{}), false},
		{topology.BalancedTree([]int{3, 3, 4}, 10e6, 0.01, 0.05), true},
	}
	for _, tc := range cases {
		spec := tc.spec
		t.Run(spec.Name, func(t *testing.T) {
			h, err := scoping.Build(spec.Zones)
			if err != nil {
				t.Fatal(err)
			}
			owner, lookahead := topology.PartitionByZone(spec.Graph, spec.Zones, 1)
			grp := eventq.NewShardGroup(1, lookahead)
			c, err := NewCluster(grp, spec.Graph, h, simrand.New(5), owner)
			if err != nil {
				t.Fatal(err)
			}
			n, q := c.Shard(0), grp.Queue(0)
			bus := telemetry.NewBus()
			var sent, delivered, lost int
			var bad []string
			bus.Attach(func(e telemetry.Event) {
				switch e.Kind {
				case telemetry.KindPacketSent:
					sent++
				case telemetry.KindPacketLost:
					lost++
				case telemetry.KindPacketDelivered:
					delivered++
					tree := spec.Graph.SPFTree(e.Origin)
					want := int64(0)
					for v := e.Node; v != e.Origin; v = tree.Parent[v] {
						want++
					}
					if e.Hops != want && len(bad) < 5 {
						bad = append(bad, fmt.Sprintf("%d→%d hops %d, SPF %d", e.Origin, e.Node, e.Hops, want))
					}
				}
			})
			n.SetTelemetry(bus)
			for _, m := range spec.Members() {
				n.Attach(m, agentFunc(func(eventq.Time, Delivery) {}))
			}
			// Every member multicasts to the root zone and to its leaf
			// zone, 20 ms apart.
			for i, m := range spec.Members() {
				m, at := m, eventq.Time(0.02*float64(i))
				q.At(at, func(eventq.Time) {
					n.Multicast(m, h.Root(), &packet.Data{Origin: m, Seq: uint32(i), Payload: make([]byte, 256)})
					n.Multicast(m, h.LeafZone(m), &packet.Data{Origin: m, Seq: uint32(i), Payload: make([]byte, 256)})
				})
			}
			grp.Run(30)
			if c.isTree != tc.isTree {
				t.Fatalf("isTree = %v; the spec no longer exercises the path it names", c.isTree)
			}
			if len(bad) > 0 {
				t.Errorf("delivered hops disagree with SPF distance: %v", bad)
			}
			s, d, l := n.Stats()
			if uint64(sent) != s || uint64(delivered) != d || uint64(lost) != l {
				t.Errorf("events sent/delivered/lost %d/%d/%d, counters %d/%d/%d", sent, delivered, lost, s, d, l)
			}
			if d == 0 || l == 0 {
				t.Errorf("counters delivered %d lost %d; want both nonzero", d, l)
			}
		})
	}
}
