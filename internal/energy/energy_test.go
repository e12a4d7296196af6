package energy

import "testing"

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
