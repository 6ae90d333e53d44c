// Package lte models the parts of an LTE radio access network that Auric
// needs: markets, eNodeBs, faces, carriers, the carrier attributes of
// Table 1 in the paper, and the configuration state attached to carriers
// and to carrier/neighbor relations.
//
// An eNodeB divides its 360-degree coverage into 3 faces; each face hosts
// one or more carriers (radio channels). Carriers operate in a low, middle
// or high frequency band; carrier layer management steers users across the
// bands (Sec 2.1).
package lte

import "fmt"

// Morphology describes the deployment environment of a carrier.
type Morphology int

const (
	Urban Morphology = iota
	Suburban
	Rural
)

// String returns the lowercase morphology name.
func (m Morphology) String() string {
	switch m {
	case Urban:
		return "urban"
	case Suburban:
		return "suburban"
	case Rural:
		return "rural"
	default:
		return fmt.Sprintf("Morphology(%d)", int(m))
	}
}

// CarrierType is the service class of a carrier (Table 1: FirstNet, NB-IoT).
type CarrierType int

const (
	Standard CarrierType = iota
	FirstNet
	NBIoT
)

// String returns the carrier type name.
func (t CarrierType) String() string {
	switch t {
	case Standard:
		return "standard"
	case FirstNet:
		return "firstnet"
	case NBIoT:
		return "nb-iot"
	default:
		return fmt.Sprintf("CarrierType(%d)", int(t))
	}
}

// Terrain is a *hidden* environmental attribute: it influences some
// parameter values in the synthetic ground truth but is deliberately absent
// from the attribute set exposed to the learners, reproducing the paper's
// finding that some mismatches trace back to missing attributes such as
// terrain type and signal propagation (Sec 4.3.3).
type Terrain int

const (
	FlatTerrain Terrain = iota
	MountainFacing
	TallBuildings
	FreewayFacing
)

// String returns the terrain name.
func (t Terrain) String() string {
	switch t {
	case FlatTerrain:
		return "flat"
	case MountainFacing:
		return "mountain"
	case TallBuildings:
		return "tall-buildings"
	case FreewayFacing:
		return "freeway"
	default:
		return fmt.Sprintf("Terrain(%d)", int(t))
	}
}

// CarrierID identifies a carrier by its index in Network.Carriers.
type CarrierID int32

// ENodeBID identifies an eNodeB by its index in Network.ENodeBs.
type ENodeBID int32

// Market is a collection of carriers managed by one group of engineers,
// analogous to a US state (Sec 2.6).
type Market struct {
	ID       int
	Name     string
	Timezone string // "Eastern", "Central", "Mountain", "Pacific"
}

// ENodeB is a base station with 3 faces at a geographic position.
type ENodeB struct {
	ID     ENodeBID
	Market int
	Vendor string
	// Lat and Lon place the eNodeB on a synthetic coordinate plane (degree
	// units; only relative distance matters).
	Lat, Lon float64
	// Carriers lists the carriers hosted on this eNodeB, across all faces.
	Carriers []CarrierID
}

// Carrier is a radio channel on one face of an eNodeB, together with the
// attribute set of Table 1 in the paper.
type Carrier struct {
	ID     CarrierID
	ENodeB ENodeBID
	Face   int // 0, 1, 2

	// Static attributes (Table 1).
	FrequencyMHz int         // carrier frequency: 700, 850, 1900, 1700, 2100, 2300
	Type         CarrierType // FirstNet, NB-IoT, standard
	Info         string      // carrier information: "", "5g-colocated", "border"
	Morphology   Morphology  // urban, suburban, rural
	BandwidthMHz int         // downlink channel bandwidth: 5, 10, 15, 20
	MIMOMode     string      // "2x2", "4x4", "closed-loop"
	Hardware     string      // remote radio head model: "RRH1", ...
	CellSizeMi   int         // expected cell size in miles: 1, 2, 3, 5, 10
	TAC          int         // tracking area code
	Market       int         // market ID
	Vendor       string      // "VendorA", "VendorB", "VendorC"
	NeighborChan int         // dominant neighbor channel (EARFCN-like)

	// Dynamic attributes (Table 1).
	NeighborsOnENB  int    // carriers on the same eNodeB (slowly changing)
	SoftwareVersion string // "RAN20Q1", ...

	// Hidden attribute, excluded from the learner-visible attribute set.
	Terrain Terrain

	// Position (face-offset from the eNodeB), used for the X2 graph.
	Lat, Lon float64
}

// Network is a complete synthetic RAN snapshot.
type Network struct {
	Markets  []Market
	ENodeBs  []ENodeB
	Carriers []Carrier
}

// CarriersInMarket returns the IDs of all carriers in market m.
func (n *Network) CarriersInMarket(m int) []CarrierID {
	var out []CarrierID
	for i := range n.Carriers {
		if n.Carriers[i].Market == m {
			out = append(out, CarrierID(i))
		}
	}
	return out
}

// ENodeBsInMarket returns the number of eNodeBs in market m.
func (n *Network) ENodeBsInMarket(m int) int {
	count := 0
	for i := range n.ENodeBs {
		if n.ENodeBs[i].Market == m {
			count++
		}
	}
	return count
}

// Validate checks internal referential integrity; it is used by tests and
// when loading snapshots from disk.
func (n *Network) Validate() error {
	for i := range n.ENodeBs {
		e := &n.ENodeBs[i]
		if e.ID != ENodeBID(i) {
			return fmt.Errorf("lte: eNodeB at index %d has ID %d", i, e.ID)
		}
		if e.Market < 0 || e.Market >= len(n.Markets) {
			return fmt.Errorf("lte: eNodeB %d references market %d of %d", i, e.Market, len(n.Markets))
		}
		for _, cid := range e.Carriers {
			if int(cid) < 0 || int(cid) >= len(n.Carriers) {
				return fmt.Errorf("lte: eNodeB %d references carrier %d of %d", i, cid, len(n.Carriers))
			}
			if n.Carriers[cid].ENodeB != e.ID {
				return fmt.Errorf("lte: carrier %d back-reference mismatch", cid)
			}
		}
	}
	for i := range n.Carriers {
		c := &n.Carriers[i]
		if c.ID != CarrierID(i) {
			return fmt.Errorf("lte: carrier at index %d has ID %d", i, c.ID)
		}
		if int(c.ENodeB) < 0 || int(c.ENodeB) >= len(n.ENodeBs) {
			return fmt.Errorf("lte: carrier %d references eNodeB %d of %d", i, c.ENodeB, len(n.ENodeBs))
		}
		if c.Market < 0 || c.Market >= len(n.Markets) {
			return fmt.Errorf("lte: carrier %d references market %d of %d", i, c.Market, len(n.Markets))
		}
		if c.Face < 0 || c.Face > 2 {
			return fmt.Errorf("lte: carrier %d has face %d", i, c.Face)
		}
	}
	return nil
}
