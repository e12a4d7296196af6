// Package simnet is a small discrete-event message-passing simulator used
// to run the distributed pieces of the paper — construction handshakes,
// leader election rounds, routing probes — with explicit message and time
// accounting, which is what makes the locality property P4 measurable
// rather than assumed.
//
// The model is standard: events (message deliveries and timers) are ordered
// by (time, sequence) so execution is deterministic; each node is a Handler
// invoked when a message arrives; handlers may send further messages or set
// timers.
package simnet

import "fmt"

// NodeID identifies a simulated node.
type NodeID int32

// Message is a delivered payload.
type Message struct {
	From, To NodeID
	Payload  any
}

// Handler processes messages delivered to a node.
type Handler interface {
	HandleMessage(net *Network, msg Message)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(net *Network, msg Message)

// HandleMessage calls f.
func (f HandlerFunc) HandleMessage(net *Network, msg Message) { f(net, msg) }

// Network is the event queue and node registry.
type Network struct {
	now      float64
	seq      int64
	queue    eventHeap
	handlers map[NodeID]Handler

	// Delay is the message latency applied by Send (default 1).
	Delay float64

	// Counters. The accounting contract is: MessagesSent increments at Send
	// time, unconditionally; MessagesDelivered and Dropped increment at
	// delivery time, when the destination's handler is consulted. A message
	// to a node that is never registered is thus Sent immediately but only
	// Dropped once its delivery event is processed by Run; before that it
	// sits in the event queue.
	MessagesSent      int
	MessagesDelivered int
	Dropped           int // messages to unregistered nodes, counted at delivery time
}

type event struct {
	at    float64
	seq   int64
	msg   Message
	timer func(*Network)
}

// New creates an empty network with unit message delay.
func New() *Network {
	return &Network{handlers: make(map[NodeID]Handler), Delay: 1}
}

// Now returns the current simulation time.
func (n *Network) Now() float64 { return n.now }

// Register installs the handler for a node, replacing any previous one.
func (n *Network) Register(id NodeID, h Handler) { n.handlers[id] = h }

// Send schedules delivery of a message after the network delay. It counts
// toward MessagesSent immediately, even when the destination is never
// registered: the sender has spent the transmission either way. The message
// is only counted Dropped at delivery time, when Run finds no handler for
// the destination.
func (n *Network) Send(from, to NodeID, payload any) {
	n.MessagesSent++
	n.push(event{at: n.now + n.Delay, msg: Message{From: from, To: to, Payload: payload}})
}

// After schedules fn to run after the given delay.
func (n *Network) After(delay float64, fn func(*Network)) {
	if delay < 0 {
		delay = 0
	}
	n.push(event{at: n.now + delay, timer: fn})
}

func (n *Network) push(e event) {
	e.seq = n.seq
	n.seq++
	n.queue.push(e)
}

// Run processes events until the queue is empty or maxEvents have been
// handled; it returns the number of events processed. maxEvents ≤ 0 means
// no limit.
func (n *Network) Run(maxEvents int) int {
	processed := 0
	for n.queue.len() > 0 {
		if maxEvents > 0 && processed >= maxEvents {
			break
		}
		e := n.queue.pop()
		if e.at < n.now {
			panic(fmt.Sprintf("simnet: time went backwards: %v < %v", e.at, n.now))
		}
		n.now = e.at
		processed++
		if e.timer != nil {
			e.timer(n)
			continue
		}
		h, ok := n.handlers[e.msg.To]
		if !ok {
			n.Dropped++
			continue
		}
		n.MessagesDelivered++
		h.HandleMessage(n, e.msg)
	}
	return processed
}

// eventHeap is a concrete binary min-heap of events keyed on (time, seq).
// It replaces the container/heap implementation, whose interface methods
// boxed every pushed event into an allocation — the same defect the
// graph-side Dijkstra heap removed. Events move by value inside the backing
// slice; the only allocations are slice growth.
type eventHeap []event

func (h eventHeap) len() int { return len(h) }

// before is the (time, sequence) strict weak order: earlier time first,
// insertion order breaking ties, which is what makes execution
// deterministic.
func (h eventHeap) before(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	// Sift up.
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.before(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q[last] = event{} // release the payload reference
	q = q[:last]
	*h = q
	// Sift down.
	for i := 0; ; {
		left := 2*i + 1
		if left >= len(q) {
			break
		}
		smallest := left
		if right := left + 1; right < len(q) && q.before(right, left) {
			smallest = right
		}
		if !q.before(smallest, i) {
			break
		}
		q[i], q[smallest] = q[smallest], q[i]
		i = smallest
	}
	return top
}
