// Target tracking: the collaborative-sensing workload that motivates
// multihop sensor-to-sensor communication in the paper's introduction
// (citing Zhao et al.). A target walks across the field; any active network
// member within sensing range detects it and reports to a sink tile over
// the SENS network using the §4.2 routing algorithm. Delivery runs on the
// discrete-event simulator so per-report latency (in hop-time units) is
// measured, not assumed.
package main

import (
	"fmt"
	"log"
	"math"

	sensnet "repro"
	"repro/internal/routing"
	"repro/internal/simnet"
	"repro/internal/tiling"
)

const (
	boxSide      = 30.0
	lambda       = 16.0
	sensingRange = 1.0
	steps        = 40
)

func main() {
	box := sensnet.Box(boxSide, boxSide)
	pts := sensnet.Deploy(box, lambda, sensnet.Seed(3))
	net, err := sensnet.BuildUDGSens(pts, box, sensnet.DefaultUDGSpec(),
		sensnet.Options{SkipBase: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(net)

	// Sink: the representative of the first good tile (e.g. a gateway in a
	// corner of the field).
	_, coords := net.GoodReps()
	if len(coords) == 0 {
		log.Fatal("no good tiles — raise λ")
	}
	sink := coords[0]
	fmt.Printf("sink at tile %v\n\n", sink)

	// The target walks a diagonal with a sinusoidal wiggle.
	detections, delivered, totalHops := 0, 0, 0
	var latencies []float64
	sim := simnet.New()
	for step := 0; step < steps; step++ {
		f := float64(step) / float64(steps-1)
		target := sensnet.Pt(
			2+f*(boxSide-4),
			2+f*(boxSide-4)+3*math.Sin(6*f),
		)
		// Detection: nearest active member within sensing range.
		detector := int32(-1)
		best := sensingRange
		for _, v := range net.Members {
			if d := net.Pts[v].Dist(target); d <= best {
				best, detector = d, v
			}
		}
		if detector < 0 {
			continue
		}
		detections++
		// Report from the detector's tile representative to the sink.
		from := net.Map.Tiling.TileOf(net.Pts[detector])
		res, err := routeFromAnyGoodTile(net, from, sink)
		if err != nil || !res.Delivered {
			continue
		}
		delivered++
		totalHops += res.NodeHops
		// Replay the node path on the event simulator to get a latency.
		latencies = append(latencies, replay(sim, res.NodePath))
	}

	fmt.Printf("target steps:        %d\n", steps)
	fmt.Printf("detections:          %d (%.0f%% of steps)\n", detections,
		100*float64(detections)/steps)
	fmt.Printf("reports delivered:   %d/%d\n", delivered, detections)
	if delivered > 0 {
		fmt.Printf("mean report path:    %.1f node hops\n", float64(totalHops)/float64(delivered))
		var sum float64
		for _, l := range latencies {
			sum += l
		}
		fmt.Printf("mean latency:        %.1f hop-times (simnet-measured)\n", sum/float64(delivered))
	}
	fmt.Printf("simnet messages:     %d sent, %d delivered\n", sim.MessagesSent, sim.MessagesDelivered)
}

// routeFromAnyGoodTile routes from the detector's tile if good, otherwise
// from the nearest good tile (a real deployment hands the report to the
// closest network member).
func routeFromAnyGoodTile(net *sensnet.Network, from sensnet.TileCoord, sink sensnet.TileCoord) (routing.SensResult, error) {
	if tn := net.Tile(from); tn != nil && tn.Good {
		return sensnet.Route(net, from, sink, 0)
	}
	bestD := math.MaxInt32
	var best tiling.Coord
	found := false
	for i, tn := range net.Tiles {
		if !tn.Good {
			continue
		}
		c := net.Map.TileAt(i)
		d := abs(c.I-from.I) + abs(c.J-from.J)
		if d < bestD {
			bestD, best, found = d, c, true
		}
	}
	if !found {
		return routing.SensResult{}, fmt.Errorf("no good tile near %v", from)
	}
	return sensnet.Route(net, best, sink, 0)
}

// replay ships one message along the node path on the simulator and returns
// the arrival time relative to injection.
func replay(sim *simnet.Network, path []int32) float64 {
	if len(path) < 2 {
		return 0
	}
	start := sim.Now()
	var arrival float64
	// Each node forwards to the next after one hop delay.
	for i, v := range path {
		i := i
		sim.Register(simnet.NodeID(v), simnet.HandlerFunc(func(n *simnet.Network, m simnet.Message) {
			if i+1 < len(path) {
				n.Send(m.To, simnet.NodeID(path[i+1]), m.Payload)
			} else {
				arrival = n.Now()
			}
		}))
	}
	sim.Send(simnet.NodeID(path[0]), simnet.NodeID(path[1]), "report")
	sim.Run(0)
	return arrival - start
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
