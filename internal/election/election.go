// Package election implements distributed leader election on a complete
// graph — the electLeader primitive of the paper's construction algorithm
// (§4.1, Figure 7). All nodes of a tile region can hear each other (the
// regions are designed so member points are mutually connected), so the
// complete-graph setting of Singh's algorithm applies.
//
// Two algorithms are provided so the experiments can charge realistic
// message costs:
//
//   - Broadcast: every node announces its ID to every other node and the
//     maximum ID wins. 1 round, n(n−1) messages — the naive baseline.
//   - Tournament: knockout pairing across ⌈log₂ n⌉ rounds, O(n) messages —
//     representative of the message-efficient complete-graph algorithms the
//     paper cites.
//
// Both are deterministic and elect the same leader (the maximum ID), so the
// construction output is identical regardless of the accounting choice.
package election

// Result reports the elected leader and the protocol cost.
type Result struct {
	Leader   int32 // elected node (max ID); −1 if the candidate set is empty
	Messages int   // total messages exchanged
	Rounds   int   // synchronous rounds used
}

// Broadcast elects a leader by full ID exchange: every node sends its ID to
// all others, then picks the maximum it heard.
func Broadcast(ids []int32) Result {
	if len(ids) == 0 {
		return Result{Leader: -1}
	}
	leader := ids[0]
	for _, id := range ids[1:] {
		if id > leader {
			leader = id
		}
	}
	n := len(ids)
	rounds := 1
	if n == 1 {
		rounds = 0
	}
	return Result{
		Leader:   leader,
		Messages: n * (n - 1),
		Rounds:   rounds,
	}
}

// Scratch holds the reusable candidate buffer for repeated elections. The
// SENS constructions run one election per occupied tile region — five (UDG)
// or nine (NN) per tile across tens of thousands of tiles — and the
// per-region copy Tournament used to make was ~3% of the UDG-SENS build
// profile. A zero Scratch is ready to use; it grows to the largest region
// seen and allocates nothing afterwards.
type Scratch struct {
	alive []int32
}

// Elect runs the selected protocol using the scratch buffer.
func (s *Scratch) Elect(alg Algorithm, ids []int32) Result {
	if alg == AlgorithmBroadcast {
		return Broadcast(ids)
	}
	return s.Tournament(ids)
}

// Tournament elects a leader by knockout rounds: surviving candidates pair
// up, each pair exchanges one message in each direction, and the larger ID
// survives. An odd candidate gets a bye. ⌈log₂ n⌉ rounds, ≤ 2(n−1) messages;
// zero allocations once the scratch buffer has grown.
func (s *Scratch) Tournament(ids []int32) Result {
	if len(ids) == 0 {
		return Result{Leader: -1}
	}
	s.alive = append(s.alive[:0], ids...)
	alive := s.alive
	res := Result{}
	for len(alive) > 1 {
		res.Rounds++
		next := alive[:0]
		i := 0
		for ; i+1 < len(alive); i += 2 {
			res.Messages += 2 // the pair exchanges IDs
			if alive[i] >= alive[i+1] {
				next = append(next, alive[i])
			} else {
				next = append(next, alive[i+1])
			}
		}
		if i < len(alive) { // bye
			next = append(next, alive[i])
		}
		alive = next
	}
	res.Leader = alive[0]
	return res
}

// Algorithm selects an election protocol for the construction pipeline.
type Algorithm int

// Available protocols.
const (
	AlgorithmTournament Algorithm = iota
	AlgorithmBroadcast
)
