package core

import (
	"math/rand/v2"

	"repro/internal/geom"
	"repro/internal/graph"
)

// FailureReport quantifies the damage of node failures to a SENS network —
// the flip side of the paper's redundancy story: individual nodes are
// expendable (most are not even members), but failures of members fragment
// the subnetwork until it is rebuilt from the survivors.
type FailureReport struct {
	// FailedTotal is the number of failed deployment nodes.
	FailedTotal int
	// FailedMembers is how many of them were network members.
	FailedMembers int
	// SurvivingLargest is the size of the largest connected component of
	// the surviving members under the ORIGINAL topology (no rebuild).
	SurvivingLargest int
	// SurvivingFraction is SurvivingLargest / original member count.
	SurvivingFraction float64
	// Rebuilt is the network constructed from scratch on the surviving
	// deployment (what the paper's local algorithm would converge to after
	// re-running elections).
	Rebuilt *Network
}

// SimulateFailures kills each deployment node independently with
// probability q, measures the degradation of the existing network, and
// rebuilds from the survivors. Thinning a Poisson(λ) deployment at rate q
// leaves a Poisson((1−q)λ) deployment, so the rebuild succeeds exactly when
// (1−q)λ is still above the construction threshold — the crossover the E17
// experiment exhibits.
func SimulateFailures(n *Network, q float64, rng *rand.Rand) (*FailureReport, error) {
	rep := &FailureReport{}
	failed := make([]bool, len(n.Pts))
	survivors := make([]geom.Point, 0, len(n.Pts))
	for i := range n.Pts {
		if rng.Float64() < q {
			failed[i] = true
			rep.FailedTotal++
			if n.InNet[i] {
				rep.FailedMembers++
			}
		} else {
			survivors = append(survivors, n.Pts[i])
		}
	}

	// Degradation of the original topology: components of the induced
	// subgraph on surviving members.
	rep.SurvivingLargest = graph.LargestComponentWhere(n.Graph, n.Members,
		func(u int32) bool { return !failed[u] })
	if len(n.Members) > 0 {
		rep.SurvivingFraction = float64(rep.SurvivingLargest) / float64(len(n.Members))
	}

	// Rebuild from the survivors with the same geometry.
	var err error
	switch {
	case n.UDGSpec != nil:
		rebuilt, e := BuildUDG(survivors, n.Box, *n.UDGSpec, Options{SkipBase: true})
		rep.Rebuilt, err = rebuilt, e
	case n.NNSpec != nil:
		rebuilt, e := BuildNN(survivors, n.Box, *n.NNSpec, Options{SkipBase: true})
		rep.Rebuilt, err = rebuilt, e
	}
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// SmallComponentWaste reports the §4.1 "small components turn themselves
// off" accounting: the number of rep/relay nodes — representatives, bridge
// relays and, for NN-SENS, outer-disk relays — that were elected and
// connected but ended up outside the largest component, and the number of
// good tiles holding at least one of them.
func (n *Network) SmallComponentWaste() (nodes int, tiles int) {
	for t := range n.Tiles {
		tn := &n.Tiles[t]
		if !tn.Good {
			continue
		}
		ids := [9]int32{tn.Rep}
		copy(ids[1:], tn.Bridge[:])
		copy(ids[5:], tn.Disk[:])
		wasted := false
		for _, id := range ids {
			if id >= 0 && !n.InNet[id] && n.Graph.Degree(id) > 0 {
				nodes++
				wasted = true
			}
		}
		if wasted {
			tiles++
		}
	}
	return nodes, tiles
}
