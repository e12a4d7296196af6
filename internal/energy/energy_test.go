package energy

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/simnet"
)

func TestModelCosts(t *testing.T) {
	m := Model{TxElec: 2, TxAmp: 3, RxElec: 5, Beta: 2, Idle: 0.5}
	if got, want := m.TxCost(4, 2), 4*(2+3*4.0); got != want {
		t.Errorf("TxCost = %v, want %v", got, want)
	}
	if got, want := m.RxCost(4), 20.0; got != want {
		t.Errorf("RxCost = %v, want %v", got, want)
	}
	// β applies to the distance, not the bits.
	m.Beta = 3
	if got, want := m.TxCost(1, 2), 1*(2+3*8.0); got != want {
		t.Errorf("TxCost(β=3) = %v, want %v", got, want)
	}
}

func TestBatteryDrainClampsAtEmpty(t *testing.T) {
	b := NewBattery(10)
	if !b.Drain(4) || b.Dead() {
		t.Fatal("battery died early")
	}
	if b.Drain(7) {
		t.Fatal("overdrain reported alive")
	}
	if b.Charge != 0 || !b.Dead() {
		t.Errorf("charge = %v, dead = %v; want clamped empty", b.Charge, b.Dead())
	}
	// Spent keeps the full demanded total, including the overshoot.
	if b.Spent != 11 {
		t.Errorf("spent = %v, want 11", b.Spent)
	}
}

func TestBankPoweredExemption(t *testing.T) {
	pos := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0)}
	bk := NewBank(DefaultModel(), pos, 100)
	bk.Powered = []bool{false, true, false}
	bk.ChargeTx(0, 1, 1) // node 0 unpowered: free
	bk.ChargeRx(2, 1)    // node 2 unpowered: free
	bk.ChargeTx(1, 2, 1) // node 1 pays 1·(1 + 1·1²) = 2
	if bk.Batteries[0].Spent != 0 || bk.Batteries[2].Spent != 0 {
		t.Errorf("unpowered nodes were charged: %+v", bk.Batteries)
	}
	want := 2.0
	if got := bk.Batteries[1].Spent; math.Abs(got-want) > 1e-12 {
		t.Errorf("powered node spent %v, want %v", got, want)
	}
	if got := bk.TotalSpent(); math.Abs(got-want) > 1e-12 {
		t.Errorf("TotalSpent = %v, want %v", got, want)
	}
	if !bk.Alive(0) || !bk.Alive(1) {
		t.Error("nodes should be alive")
	}
	bk.Batteries[1].Drain(1000)
	if bk.Alive(1) {
		t.Error("drained powered node should be dead")
	}
	if !bk.Alive(0) {
		t.Error("unpowered nodes never die")
	}
}

// TestSimnetChargerDebits pins the energy side of simnet's drop accounting:
// a Send debits tx at the sender immediately, delivery debits rx at the
// receiver, and a message to an unregistered node costs the sender tx while
// charging nobody rx.
func TestSimnetChargerDebits(t *testing.T) {
	pos := []geom.Point{geom.Pt(0, 0), geom.Pt(3, 4), geom.Pt(9, 9)}
	bk := NewBank(DefaultModel(), pos, 1000)
	net := simnet.New()
	net.Energy = &SimnetCharger{Bank: bk, Bits: 2}
	net.Register(1, simnet.HandlerFunc(func(n *simnet.Network, m simnet.Message) {}))

	net.Send(0, 1, "hello") // distance 5
	txWant := bk.Model.TxCost(2, 5)
	if got := bk.Batteries[0].Spent; math.Abs(got-txWant) > 1e-12 {
		t.Errorf("tx debit at Send = %v, want %v", got, txWant)
	}
	if bk.Batteries[1].Spent != 0 {
		t.Error("rx debited before delivery")
	}
	net.Run(0)
	if got, want := bk.Batteries[1].Spent, bk.Model.RxCost(2); math.Abs(got-want) > 1e-12 {
		t.Errorf("rx debit at delivery = %v, want %v", got, want)
	}

	// Message to an unregistered node: tx charged, no rx anywhere.
	before := bk.TotalSpent()
	net.Send(0, 2, "void")
	txOnly := bk.Model.TxCost(2, pos[0].Dist(pos[2]))
	net.Run(0)
	if got := bk.TotalSpent() - before; math.Abs(got-txOnly) > 1e-12 {
		t.Errorf("dropped message cost %v, want tx-only %v", got, txOnly)
	}
	if net.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", net.Dropped)
	}
}
