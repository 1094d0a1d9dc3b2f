// Pooled per-packet state of the data plane. Every hop of the steady
// state — an interest or data packet in flight, an origin round trip, a
// completion on its way to the client — is one packet record drawn from
// a free list and handed to the engine as the record's own pre-bound
// callback, so forwarding schedules events without allocating. Client
// requests and PIT entries recycle the same way. DESIGN.md §6.1 states
// the ownership rules this file implements.
package ccn

import (
	"ccncoord/internal/catalog"
	"ccncoord/internal/topology"
)

// pktKind selects what a packet record does when its event fires.
type pktKind uint8

const (
	// pktInterest is an interest arriving at node, from the downstream
	// neighbor peer or, when request is set, from a local client.
	pktInterest pktKind = iota
	// pktData is data arriving at node from upstream; peer is the
	// serving router (-1 for the origin) and hops the links traversed.
	pktData
	// pktOriginData is an origin fetch completing its uplink round trip
	// at node; lost marks returning data the fabric dropped.
	pktOriginData
	// pktComplete delivers a finished (or failed) request to the client
	// behind node; peer is the serving router.
	pktComplete
)

// packet is one scheduled data-plane event. The record is owned by
// whoever holds the only reference to it: the scheduling code until it
// is handed to the engine, then the engine's event queue, then fire,
// which releases it to the executing shard's pool before dispatching.
type packet struct {
	kind    pktKind
	lost    bool // pktOriginData: the returning data was dropped
	failed  bool // pktComplete: the request exhausted its retries
	node    topology.NodeID
	peer    topology.NodeID
	content catalog.ID
	hops    int
	req     int64
	request *pendingRequest
	// completedAt is the completion instant, fixed when the completion
	// is scheduled so results do not depend on the executing engine.
	completedAt float64

	net  *Network
	run  func() // p.fire, bound once when the record is created
	next *packet
}

// recordPool is one executor's LIFO free lists (see executor). The
// created counters let tests check that every record ever made is back
// on a list at quiescence.
type recordPool struct {
	packets  *packet
	requests *pendingRequest
	entries  *pitEntry

	createdPackets  int
	createdRequests int
	createdEntries  int
}

// newPacket draws a packet from the pool of the executing router at and
// addresses it to router node.
func (n *Network) newPacket(at topology.NodeID, kind pktKind, node topology.NodeID, id catalog.ID, req int64) *packet {
	pl := &n.execAt(at).pool
	p := pl.packets
	if p == nil {
		pl.createdPackets++
		p = &packet{net: n}
		p.run = p.fire
	} else {
		pl.packets = p.next
	}
	p.kind, p.node, p.content, p.req = kind, node, id, req
	return p
}

// send schedules p to fire at its destination router after delay, from
// an event executing at router from: a push on the sender's own engine,
// or a cross-shard mailbox send. Every cross-shard hand-off in the data
// plane rides a network link, so the delay is at least the partition's
// cut latency — the engine's lookahead bound.
func (n *Network) send(from topology.NodeID, delay float64, p *packet) error {
	return n.execAt(from).eng.ScheduleTo(int(n.shardOf[p.node]), delay, p.run)
}

// fire runs the packet's event. The record returns to the executing
// shard's pool first — the handlers below schedule follow-up packets,
// and the one just freed is the cache-warm candidate for the next hop.
func (p *packet) fire() {
	q := *p
	n := q.net
	pl := &n.execAt(q.node).pool
	*p = packet{net: n, run: q.run, next: pl.packets}
	pl.packets = p

	switch q.kind {
	case pktInterest:
		n.handleInterest(q.node, q.content, pitFace{neighbor: q.peer, request: q.request, req: q.req})
	case pktData:
		n.dataArrival(q.node, q.content, q.hops, q.peer, q.req)
	case pktOriginData:
		n.originDataReturn(q.node, q.content, q.req, q.lost)
	case pktComplete:
		r := q.request
		result := RequestResult{
			Content:     q.content,
			Router:      q.node,
			IssuedAt:    r.issuedAt,
			Hops:        q.hops,
			Server:      q.peer,
			ServedBy:    tierOf(q.hops, q.peer, q.node),
			CompletedAt: q.completedAt,
			Failed:      q.failed,
			Req:         r.req,
		}
		if q.failed {
			result.ServedBy = ServedNone
		}
		done := r.done
		r.done = nil
		r.next, pl.requests = pl.requests, r
		done(result)
	}
}

// newRequest draws a client request record from router r's pool.
func (n *Network) newRequest(r topology.NodeID, reqID int64, done func(RequestResult)) *pendingRequest {
	pl := &n.execAt(r).pool
	req := pl.requests
	if req == nil {
		pl.createdRequests++
		req = &pendingRequest{}
	} else {
		pl.requests = req.next
	}
	req.issuedAt, req.done, req.req = n.nowAt(r), done, reqID
	return req
}

// newEntry draws a PIT entry for router r holding its first face. The
// backing array of the aggregated faces survives recycling.
func (n *Network) newEntry(r topology.NodeID, first pitFace) *pitEntry {
	pl := &n.execAt(r).pool
	e := pl.entries
	if e == nil {
		pl.createdEntries++
		e = &pitEntry{}
	} else {
		pl.entries = e.next
	}
	e.first, e.attempts, e.primaryReq = first, 1, first.req
	return e
}

// releaseEntry returns an entry already removed from router r's PIT.
// Bumping the generation is what retires any retransmission timer still
// armed for the entry's previous life (see armRetx).
func (n *Network) releaseEntry(r topology.NodeID, e *pitEntry) {
	pl := &n.execAt(r).pool
	e.more = e.more[:0]
	e.gen++
	e.next, pl.entries = pl.entries, e
}
