// Zone-sharded parallel execution. A Cluster splits one simulated
// network across an eventq.ShardGroup: every node belongs to exactly
// one shard (topology.PartitionByZone keeps each top-level zone's
// subtree together), each shard advances its own event queue, and a
// packet crossing a shard boundary becomes a cross-shard post delivered
// at the next barrier epoch — which conservative lookahead guarantees
// is always soon enough.
//
// Every link direction draws loss from its own stream keyed
// ("netsim/loss", link, dir) rather than from one global stream, whose
// draws would be consumed in global dispatch order — an ordering that
// cannot exist under parallel execution. Per-direction draw order is
// owner-shard-local and fixed by the deterministic event order, so
// results are byte-identical across shard counts — the property the
// root package's shard digest matrix pins. One shard is the sequential
// special case: New builds it on a plain event queue.
//
// Shared mutable state obeys a strict ownership discipline:
//
//   - linkFree[li][dir] and the per-direction loss streams are written
//     only by the shard owning the direction's upstream node;
//   - fan plans and route trees are immutable once built, cached under
//     an RWMutex (concurrent builders produce identical values);
//   - loss models, link state and hierarchy swaps mutate only inside
//     ShardGroup.Sync barriers, where every shard is quiescent.
package netsim

import (
	"fmt"
	"sort"
	"sync"

	"sharqfec/internal/eventq"
	"sharqfec/internal/packet"
	"sharqfec/internal/scoping"
	"sharqfec/internal/simrand"
	"sharqfec/internal/telemetry"
	"sharqfec/internal/topology"
)

// Cluster is one simulated network sharded across parallel event
// queues. Use NewCluster, attach agents through the per-shard views
// (Shard), and drive time through the group.
type Cluster struct {
	group *eventq.ShardGroup
	G     *topology.Graph
	H     *scoping.Hierarchy
	owner []int32

	nets []*Network
	src  *simrand.Source

	// lossStreams[li][dir] is the direction's private Bernoulli stream,
	// created on first use by the (unique) shard owning the upstream
	// node. lossModels overrides it per direction; it is mutated only
	// at sync barriers.
	lossStreams [][2]*simrand.Rand
	lossModels  [][2]LossModel
	// linkFree[li][dir]: when the direction's current transmission
	// ends. Written only by the upstream owner shard.
	linkFree [][2]eventq.Time

	mu    sync.RWMutex
	plans map[planKey]*fanPlan
	spans map[scoping.ZoneID]*zoneSpan
	trees map[topology.NodeID]*topology.Tree
	// isTree marks graphs where shortest paths are unique by
	// construction, letting fan plans build by parent-pointer climbing
	// (O(Steiner size)) instead of per-source Dijkstra — the difference
	// between megabytes and terabytes of routing state at 10⁵ nodes.
	isTree bool
	base   *topology.Tree // base orientation for the climbing builder
}

// NewCluster shards the network over the group. owner maps every node
// to a shard (see topology.PartitionByZone); the per-shard Networks it
// creates share the graph, hierarchy, link occupancy and loss state
// through the cluster.
func NewCluster(group *eventq.ShardGroup, g *topology.Graph, h *scoping.Hierarchy,
	src *simrand.Source, owner []int32) (*Cluster, error) {

	if len(owner) != g.NumNodes() {
		return nil, fmt.Errorf("netsim: owner map covers %d nodes, graph has %d", len(owner), g.NumNodes())
	}
	for v, s := range owner {
		if s < 0 || int(s) >= group.NumShards() {
			return nil, fmt.Errorf("netsim: node %d assigned to shard %d of %d", v, s, group.NumShards())
		}
	}
	qs := make([]*eventq.Queue, group.NumShards())
	for i := range qs {
		qs[i] = group.Queue(i)
	}
	return newCluster(group, qs, g, h, src, owner), nil
}

// planKey identifies one (source, zone) fan plan.
type planKey struct {
	src  topology.NodeID
	zone scoping.ZoneID
}

// newCluster builds a cluster with one view per queue. group may be nil
// when there is a single queue: nothing ever crosses shards then.
func newCluster(group *eventq.ShardGroup, qs []*eventq.Queue, g *topology.Graph, h *scoping.Hierarchy,
	src *simrand.Source, owner []int32) *Cluster {

	c := &Cluster{
		group:       group,
		G:           g,
		H:           h,
		owner:       owner,
		src:         src,
		lossStreams: make([][2]*simrand.Rand, g.NumLinks()),
		linkFree:    make([][2]eventq.Time, g.NumLinks()),
		plans:       make(map[planKey]*fanPlan),
		spans:       make(map[scoping.ZoneID]*zoneSpan),
		trees:       make(map[topology.NodeID]*topology.Tree),
		isTree:      g.NumLinks() == g.NumNodes()-1,
	}
	c.nets = make([]*Network, len(qs))
	for i, q := range qs {
		c.nets[i] = &Network{
			Q: q, G: g, H: h,
			agents:  make([]Agent, g.NumNodes()),
			cluster: c,
			shard:   int32(i),
		}
	}
	return c
}

// Shard returns shard i's network view. Agents attach to the view of
// the shard owning their node; attaching elsewhere panics on delivery.
func (c *Cluster) Shard(i int) *Network { return c.nets[i] }

// NumShards returns the shard count.
func (c *Cluster) NumShards() int { return len(c.nets) }

// Owner returns the shard owning node v.
func (c *Cluster) Owner(v topology.NodeID) int { return int(c.owner[v]) }

// NetFor returns the network view that node v's agent must attach to.
func (c *Cluster) NetFor(v topology.NodeID) *Network { return c.nets[c.owner[v]] }

// Stats sums the per-shard counters.
func (c *Cluster) Stats() (sent, delivered, dropped uint64) {
	for _, n := range c.nets {
		s, d, l := n.Stats()
		sent += s
		delivered += d
		dropped += l
	}
	return
}

// SetLinkUp changes link state cluster-wide. On more than one shard,
// only call inside a sync barrier (the fault engine's scheduling seam
// guarantees this).
func (c *Cluster) SetLinkUp(link int, up bool) {
	if c.G.LinkUp(link) == up {
		return
	}
	c.G.SetLinkUp(link, up)
	c.invalidateRoutes()
}

// SetHierarchy swaps the scoping hierarchy cluster-wide (membership
// change). On more than one shard, only call inside a sync barrier.
func (c *Cluster) SetHierarchy(h *scoping.Hierarchy) {
	c.H = h
	for _, n := range c.nets {
		n.H = h
	}
	c.mu.Lock()
	c.plans = make(map[planKey]*fanPlan)
	c.spans = make(map[scoping.ZoneID]*zoneSpan)
	c.mu.Unlock()
}

// SetLossModel installs a per-direction loss override cluster-wide. On
// more than one shard, only call inside a sync barrier.
func (c *Cluster) SetLossModel(link, dir int, m LossModel) {
	if link < 0 || link >= c.G.NumLinks() || dir < 0 || dir > 1 {
		panic(fmt.Sprintf("netsim: SetLossModel(%d, %d) out of range", link, dir))
	}
	if c.lossModels == nil {
		if m == nil {
			return
		}
		c.lossModels = make([][2]LossModel, c.G.NumLinks())
	}
	c.lossModels[link][dir] = m
}

func (c *Cluster) invalidateRoutes() {
	c.mu.Lock()
	c.plans = make(map[planKey]*fanPlan)
	c.spans = make(map[scoping.ZoneID]*zoneSpan)
	c.trees = make(map[topology.NodeID]*topology.Tree)
	c.base = nil
	c.mu.Unlock()
}

// fanPlan is the compact multicast fan-out for one (source, zone) pair:
// the Steiner subtree of the source-rooted shortest-path tree spanning
// the zone's members, laid out in BFS order with contiguous child
// ranges. Unlike a per-source routing tree (O(nodes) each), a plan
// costs O(subtree), which is what lets 10⁵ multicast sources coexist.
type fanPlan struct {
	root  topology.NodeID
	nodes []fanNode // nodes[0] is the root
}

type fanNode struct {
	v            topology.NodeID
	link         int32 // link from plan parent; -1 at the root
	kidLo, kidHi int32 // children range in fanPlan.nodes
	dir          uint8 // link direction parent→v (0 = A→B)
	member       bool  // deliver here
	depth        int32 // hops from the root
	loss         float64
}

// plan returns (building and caching if needed) the fan plan for src
// multicasting to zone. Concurrent builders race benignly: plans are
// pure functions of immutable routing state, so the losing builder's
// identical plan is simply discarded.
func (c *Cluster) plan(src topology.NodeID, zone scoping.ZoneID) *fanPlan {
	key := planKey{src, zone}
	c.mu.RLock()
	p := c.plans[key]
	c.mu.RUnlock()
	if p != nil {
		return p
	}
	p = c.buildPlan(src, zone)
	c.mu.Lock()
	if q, ok := c.plans[key]; ok {
		p = q
	} else {
		c.plans[key] = p
	}
	c.mu.Unlock()
	return p
}

// zoneSpan is the shared multicast fan-out for one zone on tree
// topologies: the Steiner subtree spanning the zone's members, as
// compact adjacency lists. Paths in a tree are unique, so this subtree
// is the same no matter which member transmits — a source floods the
// span from its own position, forwarding to span neighbours in node-ID
// order minus the inbound edge, which reproduces exactly the child sets
// and ordering of a source-rooted fanPlan (the shard digest matrix pins
// this equivalence). One span per zone replaces one plan per
// (source, zone): with 10⁵ members multicasting into the root zone,
// that is the difference between megabytes and hundreds of gigabytes
// of routing state.
type zoneSpan struct {
	index map[topology.NodeID]int32
	nodes []spanNode
	edges []spanEdge
}

type spanNode struct {
	v      topology.NodeID
	member bool  // deliver here
	lo, hi int32 // adjacency range in zoneSpan.edges, neighbour-ID order
}

type spanEdge struct {
	to   int32 // span index of the receiving neighbour
	link int32
	dir  uint8 // link direction transmitter→neighbour (0 = A→B)
	loss float64
}

// span returns (building and caching if needed) zone's shared fan-out
// span. Like plans, concurrent builders race benignly.
func (c *Cluster) span(zone scoping.ZoneID) *zoneSpan {
	c.mu.RLock()
	sp := c.spans[zone]
	c.mu.RUnlock()
	if sp != nil {
		return sp
	}
	sp = c.buildSpan(zone)
	c.mu.Lock()
	if q, ok := c.spans[zone]; ok {
		sp = q
	} else {
		c.spans[zone] = sp
	}
	c.mu.Unlock()
	return sp
}

func (c *Cluster) buildSpan(zone scoping.ZoneID) *zoneSpan {
	members := c.H.Members(zone)
	base := c.baseTree()

	// keep = union of member→base-root paths; then trim the memberless
	// chain above the members' lowest common ancestor, leaving exactly
	// the Steiner subtree (what a member-rooted plan would span).
	keep := make(map[topology.NodeID]bool, len(members)*2)
	for _, m := range members {
		for v := m; !keep[v]; {
			keep[v] = true
			if v == base.Root || base.Parent[v] < 0 {
				break
			}
			v = base.Parent[v]
		}
	}
	kids := make(map[topology.NodeID][]topology.NodeID, len(keep))
	for v := range keep {
		if v == base.Root || base.Parent[v] < 0 {
			continue
		}
		if p := base.Parent[v]; keep[p] {
			kids[p] = append(kids[p], v)
		}
	}
	for r := base.Root; keep[r] && !c.H.Contains(zone, r) && len(kids[r]) == 1; {
		next := kids[r][0]
		delete(keep, r)
		r = next
	}

	// Compact layout: nodes in ID order, adjacency in neighbour-ID
	// order (node-ID sorting is what fanPlan's child lists used, so the
	// flood visits neighbours in the identical sequence).
	list := make([]topology.NodeID, 0, len(keep))
	for v := range keep {
		list = append(list, v)
	}
	sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
	sp := &zoneSpan{
		index: make(map[topology.NodeID]int32, len(list)),
		nodes: make([]spanNode, len(list)),
	}
	for i, v := range list {
		sp.index[v] = int32(i)
	}
	nbrs := make([]topology.NodeID, 0, 32)
	for i, v := range list {
		nbrs = nbrs[:0]
		if p := base.Parent[v]; v != base.Root && p >= 0 && keep[p] {
			nbrs = append(nbrs, p)
		}
		nbrs = append(nbrs, kids[v]...)
		sort.Slice(nbrs, func(a, b int) bool { return nbrs[a] < nbrs[b] })
		sp.nodes[i] = spanNode{
			v: v, member: c.H.Contains(zone, v),
			lo: int32(len(sp.edges)),
		}
		for _, u := range nbrs {
			li := c.linkBetween(v, u)
			link := c.G.Link(li)
			dir := uint8(0)
			loss := link.LossAB
			if v == link.B {
				dir = 1
				loss = link.LossBA
			}
			sp.edges = append(sp.edges, spanEdge{
				to: sp.index[u], link: int32(li), dir: dir, loss: loss,
			})
		}
		sp.nodes[i].hi = int32(len(sp.edges))
	}
	return sp
}

// planParentsTree computes each relevant node's parent toward src by
// climbing the base orientation — valid because tree graphs have
// unique paths. Returns the parent map restricted to the union of
// src→member paths. O(Steiner subtree), not O(nodes): the key to
// holding 10⁵ concurrent multicast sources.
func (c *Cluster) planParentsTree(src topology.NodeID, members []topology.NodeID) map[topology.NodeID]topology.NodeID {
	base := c.baseTree()
	parent := make(map[topology.NodeID]topology.NodeID, len(members)*2)
	parent[src] = src
	// Mark src's chain to the base root so every member climb
	// terminates; the pruning pass below drops the memberless prefix.
	for v := src; v != base.Root && base.Parent[v] >= 0; {
		up := base.Parent[v]
		if _, ok := parent[up]; ok {
			break
		}
		parent[up] = v
		v = up
	}
	chain := make([]topology.NodeID, 0, 64)
	for _, m := range members {
		// Climb from the member toward the base root until hitting a
		// node already oriented; that node is where this member's path
		// joins the plan.
		chain = chain[:0]
		v := m
		reach := true
		for {
			if _, ok := parent[v]; ok {
				break
			}
			chain = append(chain, v)
			if base.Parent[v] < 0 {
				reach = false // severed by a downed link: m is unreachable
				break
			}
			if v == base.Root {
				break
			}
			v = base.Parent[v]
		}
		if !reach {
			continue
		}
		// chain runs member→...→child-of-junction v; orient it from
		// src: each chain node's parent is the next node up.
		for i := 0; i < len(chain); i++ {
			up := v
			if i+1 < len(chain) {
				up = chain[i+1]
			}
			parent[chain[i]] = up
		}
	}
	return parent
}

// planParentsSPF computes plan parents from the source-rooted Dijkstra
// tree — the general-graph path (meshes), where per-source trees are
// cached cluster-wide.
func (c *Cluster) planParentsSPF(src topology.NodeID, members []topology.NodeID) map[topology.NodeID]topology.NodeID {
	tree := c.tree(src)
	parent := make(map[topology.NodeID]topology.NodeID, len(members)*2)
	parent[src] = src
	for _, m := range members {
		v := m
		for {
			if _, ok := parent[v]; ok {
				break
			}
			up := tree.Parent[v]
			if up < 0 {
				break // unreachable member: no path into the plan
			}
			parent[v] = up
			v = up
		}
	}
	return parent
}

func (c *Cluster) buildPlan(src topology.NodeID, zone scoping.ZoneID) *fanPlan {
	members := c.H.Members(zone)
	var parent map[topology.NodeID]topology.NodeID
	if c.isTree && c.G.AllLinksUp() {
		// Unique paths and full connectivity: climb parent pointers.
		// During fault windows (a link down partitions a tree) fall
		// back to per-source Dijkstra, which still routes correctly
		// inside the source's component.
		parent = c.planParentsTree(src, members)
	} else {
		parent = c.planParentsSPF(src, members)
	}

	// Prune to nodes on a src→member path: walk up from each member,
	// stopping at the first node already kept.
	keep := make(map[topology.NodeID]bool, len(parent))
	keep[src] = true
	for _, m := range members {
		if _, ok := parent[m]; !ok {
			continue
		}
		for v := m; !keep[v]; v = parent[v] {
			keep[v] = true
		}
	}

	// Children lists restricted to kept nodes, sorted by node ID for a
	// deterministic layout.
	kids := make(map[topology.NodeID][]topology.NodeID, len(keep))
	for v := range keep {
		if v == src {
			continue
		}
		kids[parent[v]] = append(kids[parent[v]], v)
	}
	for _, k := range kids {
		sort.Slice(k, func(i, j int) bool { return k[i] < k[j] })
	}

	p := &fanPlan{root: src, nodes: make([]fanNode, 0, len(keep))}
	p.nodes = append(p.nodes, fanNode{v: src, link: -1})
	for i := 0; i < len(p.nodes); i++ {
		u := p.nodes[i].v
		children := kids[u]
		p.nodes[i].kidLo = int32(len(p.nodes))
		for _, v := range children {
			li := c.linkBetween(u, v)
			link := c.G.Link(li)
			dir := uint8(0)
			loss := link.LossAB
			if u == link.B {
				dir = 1
				loss = link.LossBA
			}
			p.nodes = append(p.nodes, fanNode{
				v: v, link: int32(li), dir: dir, loss: loss,
				member: c.H.Contains(zone, v), depth: p.nodes[i].depth + 1,
			})
		}
		p.nodes[i].kidHi = int32(len(p.nodes))
	}
	return p
}

// linkBetween returns the index of the (unique) link joining adjacent
// plan nodes u and v.
func (c *Cluster) linkBetween(u, v topology.NodeID) int {
	li := c.G.LinkBetween(u, v)
	if li < 0 {
		panic(fmt.Sprintf("netsim: no link between adjacent plan nodes %d and %d", u, v))
	}
	return li
}

// baseTree returns (building once) the orientation tree for the
// climbing plan builder.
func (c *Cluster) baseTree() *topology.Tree {
	c.mu.RLock()
	b := c.base
	c.mu.RUnlock()
	if b != nil {
		return b
	}
	t := c.G.SPFTree(0)
	c.mu.Lock()
	if c.base == nil {
		c.base = t
	}
	b = c.base
	c.mu.Unlock()
	return b
}

// tree returns (building and caching) the Dijkstra tree rooted at src:
// mesh plans route on it, and Network.Tree serves it on any graph (tree
// graphs' plans use the climbing builder instead).
func (c *Cluster) tree(src topology.NodeID) *topology.Tree {
	c.mu.RLock()
	t := c.trees[src]
	c.mu.RUnlock()
	if t != nil {
		return t
	}
	t = c.G.SPFTree(src)
	c.mu.Lock()
	if u, ok := c.trees[src]; ok {
		t = u
	} else {
		c.trees[src] = t
	}
	c.mu.Unlock()
	return t
}

// multicast is the cluster forwarding entry, called from the per-shard
// Network views with a validated sender and zone. The sending shard
// walks the plan; hops that leave the shard become cross posts.
func (c *Cluster) multicast(n *Network, from topology.NodeID, zone scoping.ZoneID, pkt packet.Packet) {
	if c.owner[from] != n.shard {
		panic(fmt.Sprintf("netsim: node %d multicast on shard %d, owned by shard %d", from, n.shard, c.owner[from]))
	}
	n.sent++
	now := n.Q.Now()
	for _, tap := range n.sendTaps {
		tap(now, from, zone, pkt)
	}
	if n.tel.On() {
		_, group := pktCorrelation(pkt)
		n.tel.Emit(telemetry.Event{
			T: now.Seconds(), Kind: telemetry.KindPacketSent, Node: from, Zone: zone,
			Group: group, A: int64(pkt.Kind()), B: int64(pkt.WireSize()),
		})
	}
	if c.isTree && c.G.AllLinksUp() {
		sp := c.span(zone)
		if si, ok := sp.index[from]; ok {
			nd := &sp.nodes[si]
			for e := nd.lo; e < nd.hi; e++ {
				c.forwardSpan(n, sp, si, e, from, 1, now, zone, pkt)
			}
			return
		}
		// Source outside the span (e.g. a parent-zone repairer sending
		// into a child zone): fall through to the per-source plan,
		// whose entry path handles the descent into the span.
	}
	p := c.plan(from, zone)
	root := &p.nodes[0]
	for k := root.kidLo; k < root.kidHi; k++ {
		c.forward(n, p, k, now, zone, pkt)
	}
}

// transmit pushes pkt onto link li in direction dir at time t, toward
// node v: it serializes on the link, applies tail-drop and loss, and
// returns the far-end arrival time, or ok=false when the packet died on
// the hop. Shared by the plan and span forwarding paths so both charge
// links and draw loss identically.
func (c *Cluster) transmit(n *Network, li, dir int, loss float64, t eventq.Time,
	v topology.NodeID, zone scoping.ZoneID, pkt packet.Packet) (eventq.Time, bool) {

	if !c.G.LinkUp(li) {
		// The plan predates a link failure (multicasts in flight keep
		// their plan): the packet dies at the broken link.
		n.faultdrops++
		n.emitDrop(t, telemetry.KindFaultDrop, v, zone, pkt)
		return 0, false
	}
	link := c.G.Link(li)
	start := t
	if c.linkFree[li][dir] > start {
		start = c.linkFree[li][dir]
	}
	txTime := eventq.Duration(float64(pkt.WireSize()*8) / link.Bandwidth)
	if n.QueueLimit > 0 {
		backlog := float64(start.Sub(t)) / float64(txTime)
		if backlog > float64(n.QueueLimit) {
			n.taildrops++
			n.emitDrop(t, telemetry.KindTailDrop, v, zone, pkt)
			return 0, false
		}
	}
	txDone := start.Add(txTime)
	c.linkFree[li][dir] = txDone
	arrive := txDone.Add(link.Latency)
	if n.hopTap != nil {
		n.hopTap(li, dir, pkt)
	}

	if pkt.Lossy() {
		if m := c.lossModelAt(li, dir); m != nil {
			if m.Drop() {
				n.dropped++
				n.emitDrop(t, telemetry.KindPacketLost, v, zone, pkt)
				return 0, false
			}
		} else if loss > 0 {
			if c.lossStream(li, dir).Bernoulli(loss) {
				n.dropped++
				n.emitDrop(t, telemetry.KindPacketLost, v, zone, pkt)
				return 0, false
			}
		}
	}
	return arrive, true
}

// forward transmits pkt across the link into plan node idx at time t
// and schedules its arrival: on this shard's queue, or as a cross-shard
// post when the node belongs to another shard.
func (c *Cluster) forward(n *Network, p *fanPlan, idx int32, t eventq.Time, zone scoping.ZoneID, pkt packet.Packet) {
	nd := &p.nodes[idx]
	arrive, ok := c.transmit(n, int(nd.link), int(nd.dir), nd.loss, t, nd.v, zone, pkt)
	if !ok {
		return
	}
	dst := c.owner[nd.v]
	if dst == n.shard {
		h := n.acquirePlanHop()
		h.plan, h.idx, h.zone, h.pkt = p, idx, zone, pkt
		n.Q.At(arrive, h.fn)
		return
	}
	// Leaving the shard: the arrival is at least one boundary-link
	// latency away, i.e. at or past the next barrier — the lookahead
	// contract Post asserts.
	dn := c.nets[dst]
	c.group.Post(int(n.shard), int(dst), arrive, func(now eventq.Time) {
		c.arrive(dn, p, idx, now, zone, pkt)
	})
}

// arrive lands pkt at plan node idx: deliver if it is a member, then
// forward to its plan children.
func (c *Cluster) arrive(n *Network, p *fanPlan, idx int32, now eventq.Time, zone scoping.ZoneID, pkt packet.Packet) {
	nd := &p.nodes[idx]
	if nd.member {
		n.deliver(now, nd.v, int64(nd.depth), Delivery{From: p.root, Scope: zone, Pkt: pkt})
	}
	for k := nd.kidLo; k < nd.kidHi; k++ {
		c.forward(n, p, k, now, zone, pkt)
	}
}

// forwardSpan transmits pkt across span edge e (whose transmitter is
// span node at) and schedules the arrival at the far end, hops links
// from src.
func (c *Cluster) forwardSpan(n *Network, sp *zoneSpan, at, e int32, src topology.NodeID,
	hops int32, t eventq.Time, zone scoping.ZoneID, pkt packet.Packet) {

	ed := &sp.edges[e]
	to := ed.to
	v := sp.nodes[to].v
	arrive, ok := c.transmit(n, int(ed.link), int(ed.dir), ed.loss, t, v, zone, pkt)
	if !ok {
		return
	}
	dst := c.owner[v]
	if dst == n.shard {
		h := n.acquireSpanHop()
		h.span, h.at, h.from, h.src, h.hops, h.zone, h.pkt = sp, to, at, src, hops, zone, pkt
		n.Q.At(arrive, h.fn)
		return
	}
	dn := c.nets[dst]
	c.group.Post(int(n.shard), int(dst), arrive, func(now eventq.Time) {
		c.arriveSpan(dn, sp, to, at, src, hops, now, zone, pkt)
	})
}

// arriveSpan lands pkt at span node at: deliver if it is a member, then
// continue the flood to every span neighbour except the inbound one —
// exactly the child set (and node-ID order) a src-rooted plan would
// forward to.
func (c *Cluster) arriveSpan(n *Network, sp *zoneSpan, at, from int32, src topology.NodeID,
	hops int32, now eventq.Time, zone scoping.ZoneID, pkt packet.Packet) {

	nd := &sp.nodes[at]
	if nd.member {
		n.deliver(now, nd.v, int64(hops), Delivery{From: src, Scope: zone, Pkt: pkt})
	}
	for e := nd.lo; e < nd.hi; e++ {
		if sp.edges[e].to == from {
			continue
		}
		c.forwardSpan(n, sp, at, e, src, hops+1, now, zone, pkt)
	}
}

// spanHop is a packet in flight toward one span node — the span path's
// pooled counterpart of planHop, carrying the inbound edge (so the
// flood does not turn back), the originating source (for Delivery) and
// the hop count from it (for telemetry).
type spanHop struct {
	c        *Cluster
	n        *Network
	span     *zoneSpan
	at, from int32
	src      topology.NodeID
	hops     int32
	zone     scoping.ZoneID
	pkt      packet.Packet
	fn       eventq.Handler
}

func (h *spanHop) run(now eventq.Time) {
	c, n, sp, at, from, src, hops, zone, pkt := h.c, h.n, h.span, h.at, h.from, h.src, h.hops, h.zone, h.pkt
	n.releaseSpanHop(h)
	c.arriveSpan(n, sp, at, from, src, hops, now, zone, pkt)
}

func (n *Network) acquireSpanHop() *spanHop {
	if l := len(n.spanHopFree); l > 0 {
		h := n.spanHopFree[l-1]
		n.spanHopFree[l-1] = nil
		n.spanHopFree = n.spanHopFree[:l-1]
		return h
	}
	h := &spanHop{c: n.cluster, n: n}
	h.fn = h.run
	return h
}

func (n *Network) releaseSpanHop(h *spanHop) {
	h.span, h.pkt = nil, nil
	n.spanHopFree = append(n.spanHopFree, h)
}

// planHop is a packet in flight toward one plan node, pooled per view
// so the per-hop handler closure is recycled instead of reallocated.
// The agent taking delivery must live on this view's shard (the
// forwarding step routed cross-shard hops through the barrier already).
type planHop struct {
	c    *Cluster
	n    *Network
	plan *fanPlan
	idx  int32
	zone scoping.ZoneID
	pkt  packet.Packet
	fn   eventq.Handler
}

func (h *planHop) run(now eventq.Time) {
	c, n, p, idx, zone, pkt := h.c, h.n, h.plan, h.idx, h.zone, h.pkt
	n.releasePlanHop(h)
	c.arrive(n, p, idx, now, zone, pkt)
}

func (n *Network) acquirePlanHop() *planHop {
	if l := len(n.planHopFree); l > 0 {
		h := n.planHopFree[l-1]
		n.planHopFree[l-1] = nil
		n.planHopFree = n.planHopFree[:l-1]
		return h
	}
	h := &planHop{c: n.cluster, n: n}
	h.fn = h.run
	return h
}

func (n *Network) releasePlanHop(h *planHop) {
	h.plan, h.pkt = nil, nil
	n.planHopFree = append(n.planHopFree, h)
}

// lossModelAt returns the per-direction override, if any. The models
// array only changes at sync barriers.
func (c *Cluster) lossModelAt(link, dir int) LossModel {
	if c.lossModels == nil {
		return nil
	}
	return c.lossModels[link][dir]
}

// lossStream returns the direction's private Bernoulli stream, creating
// it on first use. Only the upstream owner shard ever touches a given
// direction, so creation and draws are single-threaded per stream, and
// the (seed, link, dir) keying makes draw sequences independent of both
// shard count and the traffic on every other link.
func (c *Cluster) lossStream(link, dir int) *simrand.Rand {
	r := c.lossStreams[link][dir]
	if r == nil {
		r = c.src.StreamN2("netsim/loss", link, dir)
		c.lossStreams[link][dir] = r
	}
	return r
}
