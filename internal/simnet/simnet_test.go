package simnet

import (
	"testing"
)

// kill unregisters node id, modeling a crash-stop failure: messages in
// flight to it, and any sent later, are Dropped at delivery time like
// messages to a never-registered node. Killing an unknown node is a no-op.
func kill(n *Network, id NodeID) { delete(n.handlers, id) }

// pending returns the number of undelivered events.
func pending(n *Network) int { return n.queue.len() }

func TestPingPong(t *testing.T) {
	net := New()
	var log []string
	net.Register(1, HandlerFunc(func(n *Network, m Message) {
		log = append(log, "1 got "+m.Payload.(string))
		if m.Payload.(string) == "ping" {
			n.Send(1, 2, "pong")
		}
	}))
	net.Register(2, HandlerFunc(func(n *Network, m Message) {
		log = append(log, "2 got "+m.Payload.(string))
	}))
	net.Send(2, 1, "ping")
	processed := net.Run(0)
	if processed != 2 {
		t.Errorf("processed = %d", processed)
	}
	if len(log) != 2 || log[0] != "1 got ping" || log[1] != "2 got pong" {
		t.Errorf("log = %v", log)
	}
	if net.MessagesSent != 2 || net.MessagesDelivered != 2 {
		t.Errorf("counters: sent %d delivered %d", net.MessagesSent, net.MessagesDelivered)
	}
}

func TestTimeAdvancesWithDelay(t *testing.T) {
	net := New()
	net.Delay = 2.5
	var at float64
	net.Register(1, HandlerFunc(func(n *Network, m Message) { at = n.Now() }))
	net.Send(0, 1, nil)
	net.Run(0)
	if at != 2.5 {
		t.Errorf("delivery time = %v", at)
	}
}

func TestTimers(t *testing.T) {
	net := New()
	var order []int
	net.After(5, func(n *Network) { order = append(order, 2) })
	net.After(1, func(n *Network) { order = append(order, 1) })
	net.After(1, func(n *Network) { order = append(order, 3) }) // same time: FIFO by seq
	net.Run(0)
	if len(order) != 3 || order[0] != 1 || order[1] != 3 || order[2] != 2 {
		t.Errorf("order = %v", order)
	}
	if net.Now() != 5 {
		t.Errorf("final time = %v", net.Now())
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	net := New()
	ran := false
	net.After(-3, func(n *Network) { ran = true })
	net.Run(0)
	if !ran || net.Now() != 0 {
		t.Errorf("negative-delay timer: ran=%v now=%v", ran, net.Now())
	}
}

func TestUnregisteredDrops(t *testing.T) {
	net := New()
	net.Send(0, 99, "void")
	net.Run(0)
	if net.Dropped != 1 || net.MessagesDelivered != 0 {
		t.Errorf("dropped=%d delivered=%d", net.Dropped, net.MessagesDelivered)
	}
}

// TestDropAccountingTiming pins the documented accounting contract the
// energy debits hang off: a Send to an unregistered node counts MessagesSent
// immediately, but is only counted Dropped at delivery time — before Run
// processes the event it is pending, not Dropped.
func TestDropAccountingTiming(t *testing.T) {
	net := New()
	net.Send(0, 99, "void")
	if net.MessagesSent != 1 {
		t.Errorf("MessagesSent = %d at send time, want 1", net.MessagesSent)
	}
	if net.Dropped != 0 || pending(net) != 1 {
		t.Errorf("before Run: dropped=%d pending=%d, want 0/1", net.Dropped, pending(net))
	}
	net.Run(0)
	if net.Dropped != 1 || net.MessagesDelivered != 0 || pending(net) != 0 {
		t.Errorf("after Run: dropped=%d delivered=%d pending=%d, want 1/0/0",
			net.Dropped, net.MessagesDelivered, pending(net))
	}
	// Registering the destination after the drop does not resurrect it.
	net.Register(99, HandlerFunc(func(*Network, Message) {}))
	net.Run(0)
	if net.MessagesDelivered != 0 {
		t.Error("dropped message was delivered retroactively")
	}
}

func TestMaxEventsLimit(t *testing.T) {
	net := New()
	// Self-perpetuating timer chain.
	var tick func(*Network)
	count := 0
	tick = func(n *Network) {
		count++
		n.After(1, tick)
	}
	net.After(0, tick)
	processed := net.Run(10)
	if processed != 10 || count != 10 {
		t.Errorf("processed=%d count=%d", processed, count)
	}
	if pending(net) != 1 {
		t.Errorf("pending = %d", pending(net))
	}
}

func TestDeterministicOrdering(t *testing.T) {
	run := func() []int {
		net := New()
		var order []int
		for id := NodeID(0); id < 10; id++ {
			captured := int(id)
			net.Register(id, HandlerFunc(func(n *Network, m Message) {
				order = append(order, captured)
			}))
		}
		for id := NodeID(9); id >= 0; id-- {
			net.Send(-1, id, nil) // all at the same delivery time
		}
		net.Run(0)
		return order
	}
	a, b := run(), run()
	if len(a) != 10 || len(b) != 10 {
		t.Fatal("wrong event counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic ordering: %v vs %v", a, b)
		}
		// Same-time messages deliver in send order: 9, 8, …, 0.
		if a[i] != 9-i {
			t.Fatalf("FIFO violated: %v", a)
		}
	}
}

// TestEventHeapOrderingProperty drains a heap filled with adversarial
// (time, seq) mixes — duplicate times, reverse order, interleaved pushes
// and pops — and asserts strict (time, seq) ascending delivery. This pins
// the concrete min-heap that replaced container/heap.
func TestEventHeapOrderingProperty(t *testing.T) {
	rnd := uint64(12345)
	next := func(n uint64) uint64 { // xorshift, no external deps
		rnd ^= rnd << 13
		rnd ^= rnd >> 7
		rnd ^= rnd << 17
		return rnd % n
	}
	var h eventHeap
	var model []event // reference multiset of pending events
	seq := int64(0)
	push := func(at float64) {
		e := event{at: at, seq: seq}
		seq++
		h.push(e)
		model = append(model, e)
	}
	popped := 0
	popOne := func() {
		if h.len() == 0 {
			return
		}
		got := h.pop()
		// The heap must return the (time, seq)-minimum of the pending set.
		minIdx := 0
		for i, e := range model {
			m := model[minIdx]
			if e.at < m.at || (e.at == m.at && e.seq < m.seq) {
				minIdx = i
			}
		}
		want := model[minIdx]
		if got.at != want.at || got.seq != want.seq {
			t.Fatalf("pop %d: got (t=%v, seq=%d), want minimum (t=%v, seq=%d)",
				popped, got.at, got.seq, want.at, want.seq)
		}
		model = append(model[:minIdx], model[minIdx+1:]...)
		popped++
	}
	for i := 0; i < 2000; i++ {
		switch next(4) {
		case 0, 1:
			push(float64(next(50))) // many duplicate timestamps
		case 2:
			push(float64(50 - i%50)) // descending runs
		default:
			popOne()
		}
	}
	for h.len() > 0 {
		popOne()
	}
	if popped == 0 || len(model) != 0 {
		t.Fatalf("drained %d, %d left in model", popped, len(model))
	}
}

// TestRunZeroAllocsSteadyState: pushing and popping events through the
// concrete heap must not allocate once the backing slice has grown (the
// container/heap version boxed every push).
func TestEventHeapPushPopNoBoxing(t *testing.T) {
	var h eventHeap
	for i := 0; i < 256; i++ { // grow backing storage
		h.push(event{at: float64(i % 7), seq: int64(i)})
	}
	for h.len() > 0 {
		h.pop()
	}
	if a := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			h.push(event{at: float64((i * 13) % 11), seq: int64(i)})
		}
		for h.len() > 0 {
			h.pop()
		}
	}); a != 0 {
		t.Errorf("event heap allocates %.2f per push/pop cycle, want 0", a)
	}
}

// TestKillThenSendDropAccounting pins the crash-stop contract when the node
// dies before the message is sent: the send is counted at Send time and the
// drop only at delivery time; nothing is delivered.
func TestKillThenSendDropAccounting(t *testing.T) {
	net := New()
	net.Register(1, HandlerFunc(func(*Network, Message) {
		t.Fatal("dead node's handler ran")
	}))
	kill(net, 1)
	net.Send(0, 1, "to the dead")
	if net.MessagesSent != 1 {
		t.Fatalf("send accounting: sent=%d, want 1", net.MessagesSent)
	}
	if net.Dropped != 0 {
		t.Fatalf("drop counted before delivery time: %d", net.Dropped)
	}
	net.Run(0)
	if net.Dropped != 1 || net.MessagesDelivered != 0 {
		t.Fatalf("after run: dropped=%d delivered=%d, want 1/0", net.Dropped, net.MessagesDelivered)
	}
}

// TestSendThenKillDropAccounting pins the other order: the message is
// already in flight when the node crashes. The send stands, and the
// in-flight message is Dropped when Run reaches it.
func TestSendThenKillDropAccounting(t *testing.T) {
	net := New()
	net.Register(1, HandlerFunc(func(*Network, Message) {
		t.Fatal("dead node's handler ran")
	}))
	net.Send(0, 1, "in flight")
	kill(net, 1)
	if net.MessagesSent != 1 || net.Dropped != 0 {
		t.Fatalf("before run: sent=%d dropped=%d, want 1/0", net.MessagesSent, net.Dropped)
	}
	net.Run(0)
	if net.MessagesSent != 1 || net.Dropped != 1 || net.MessagesDelivered != 0 {
		t.Fatalf("sent=%d dropped=%d delivered=%d, want 1/1/0",
			net.MessagesSent, net.Dropped, net.MessagesDelivered)
	}
	// Killing twice, or killing an unknown node, stays a no-op.
	kill(net, 1)
	kill(net, 42)
}
