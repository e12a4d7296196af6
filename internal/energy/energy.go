// Package energy models the resource the paper's title promises to save:
// per-node battery state under a configurable first-order radio model
// (transmitting b bits over distance d costs b·(c + d^β), receiving costs
// b·r, idling drains a trickle), plus the round-based network-lifetime
// simulation that turns the repository's structural measurements (degree,
// stretch, d^β path cost) into the operational question the QoS literature
// asks: how long does each topology actually live? (arXiv:2001.02761 for
// the lifetime/QoS metrics, arXiv:cs/0411040 for the even-power-
// distribution rotation story.)
//
// The package is deliberately topology-agnostic: everything operates on a
// CSR graph plus vertex positions, so UDG-SENS, NN-SENS, HNG and the dense
// base graphs all flow through the same simulation. Hook types in simnet
// (EnergySink) and routing (charge hooks in Options) let the discrete-event
// and routing layers debit the same batteries.
package energy

import (
	"math"

	"repro/internal/geom"
	"repro/internal/simnet"
)

// Model is the first-order radio energy model. All quantities are in
// normalized energy units: one unit is the electronics cost of moving one
// bit (the standard nJ/bit scale of Heinzelman et al., with the absolute
// scale divided out — only ratios matter to lifetime comparisons).
type Model struct {
	// TxElec is the per-bit electronics cost of transmitting (the c in
	// bits·(c + d^β)).
	TxElec float64
	// TxAmp is the per-bit amplifier coefficient multiplying d^β.
	TxAmp float64
	// RxElec is the per-bit cost of receiving.
	RxElec float64
	// Beta is the path-loss exponent of the amplifier term (the paper's
	// β ∈ [2, 5]).
	Beta float64
	// Idle is the per-round drain every powered node pays regardless of
	// traffic (listening, sensing, clock).
	Idle float64
}

// DefaultModel returns the reference parameterization used by the Q**
// scenarios: symmetric per-bit electronics (c = r = 1), unit amplifier
// coefficient, β = 2, and an idle trickle two orders of magnitude below the
// per-bit cost.
func DefaultModel() Model {
	return Model{TxElec: 1, TxAmp: 1, RxElec: 1, Beta: 2, Idle: 0.05}
}

// TxCost returns the energy to transmit bits over distance d:
// bits·(TxElec + TxAmp·d^β).
func (m Model) TxCost(bits, d float64) float64 {
	return bits * (m.TxElec + m.TxAmp*math.Pow(d, m.Beta))
}

// RxCost returns the energy to receive bits: bits·RxElec.
func (m Model) RxCost(bits float64) float64 { return bits * m.RxElec }

// Battery is one node's energy store. The zero value is an empty (dead)
// battery.
type Battery struct {
	// Charge is the remaining energy; the node is dead once it reaches 0.
	Charge float64
	// Spent accumulates every debit ever applied, including the overshoot
	// of the final draining debit — total energy demanded of the node.
	Spent float64
}

// NewBattery returns a battery holding the given initial charge.
func NewBattery(capacity float64) Battery { return Battery{Charge: capacity} }

// Drain debits e from the battery (clamping at empty) and reports whether
// the battery still holds charge afterwards.
func (b *Battery) Drain(e float64) bool {
	b.Spent += e
	b.Charge -= e
	if b.Charge <= 0 {
		b.Charge = 0
		return false
	}
	return true
}

// Dead reports whether the battery is empty.
func (b *Battery) Dead() bool { return b.Charge <= 0 }

// Bank is per-node battery state for a positioned node set: the shared
// debit surface behind the simnet energy sink, the routing charge hooks and
// the lifetime simulation. Nodes outside the powered set (Powered nil ==
// everyone powered) are ignored by the charge methods, which is how mains-
// powered sinks and non-member deployment points are modeled.
type Bank struct {
	// Model prices every debit.
	Model Model
	// Pos supplies hop distances for tx debits.
	Pos []geom.Point
	// Batteries holds one battery per node (indexed like Pos).
	Batteries []Battery
	// Powered flags the battery-powered nodes; nil means all nodes are.
	// Unpowered nodes accept any debit for free (infinite energy).
	Powered []bool
}

// NewBank returns a bank over the positioned nodes, every battery holding
// capacity. All nodes are powered; restrict by setting Powered.
func NewBank(model Model, pos []geom.Point, capacity float64) *Bank {
	bk := &Bank{Model: model, Pos: pos, Batteries: make([]Battery, len(pos))}
	for i := range bk.Batteries {
		bk.Batteries[i] = NewBattery(capacity)
	}
	return bk
}

func (bk *Bank) powered(u int32) bool {
	return bk.Powered == nil || (int(u) < len(bk.Powered) && bk.Powered[u])
}

// Alive reports whether node u can still spend energy: unpowered nodes are
// always alive; powered nodes die with their battery.
func (bk *Bank) Alive(u int32) bool {
	return !bk.powered(u) || !bk.Batteries[u].Dead()
}

// ChargeTx debits the cost of transmitting bits from u to v (distance from
// positions) against u's battery.
func (bk *Bank) ChargeTx(u, v int32, bits float64) {
	if bk.powered(u) {
		bk.Batteries[u].Drain(bk.Model.TxCost(bits, bk.Pos[u].Dist(bk.Pos[v])))
	}
}

// ChargeRx debits the cost of receiving bits against v's battery.
func (bk *Bank) ChargeRx(v int32, bits float64) {
	if bk.powered(v) {
		bk.Batteries[v].Drain(bk.Model.RxCost(bits))
	}
}

// TotalSpent sums the energy demanded of all batteries so far.
func (bk *Bank) TotalSpent() float64 {
	var s float64
	for i := range bk.Batteries {
		s += bk.Batteries[i].Spent
	}
	return s
}

// SimnetCharger adapts a Bank to the simnet.EnergySink hook: every Send
// debits the tx cost of Bits at the sender, every delivery debits the rx
// cost at the receiver. Messages to unregistered nodes therefore cost the
// sender tx energy but charge no one rx energy — matching simnet's
// documented drop accounting (MessagesSent at Send, Dropped at delivery
// time).
type SimnetCharger struct {
	// Bank receives the debits.
	Bank *Bank
	// Bits is the modeled payload size of one simulator message.
	Bits float64
}

// MessageSent implements simnet.EnergySink.
func (c *SimnetCharger) MessageSent(from, to simnet.NodeID) {
	c.Bank.ChargeTx(int32(from), int32(to), c.Bits)
}

// MessageDelivered implements simnet.EnergySink.
func (c *SimnetCharger) MessageDelivered(from, to simnet.NodeID) {
	c.Bank.ChargeRx(int32(to), c.Bits)
}

var _ simnet.EnergySink = (*SimnetCharger)(nil)
