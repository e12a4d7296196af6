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
// base graphs all flow through the same simulation. The simulation's
// per-node batteries are the repository's one energy ledger.
package energy

import "math"

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
