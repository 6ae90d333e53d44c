package netsim

import (
	"fmt"

	"auric/internal/lte"
	"auric/internal/rng"
)

// channelOfFreq maps each carrier frequency (MHz) to its EARFCN-like
// channel number (the "neighbor channel" attribute of Table 1 takes values
// such as 444/555/666; we use one channel id per frequency).
var channelOfFreq = map[int]int{
	700: 5110, 850: 2450, 1700: 675, 1900: 725, 2100: 2000, 2300: 3050,
}

var timezones = []string{"Eastern", "Central", "Mountain", "Pacific"}

// clusterInfo is generator-internal metadata about one tuning cluster
// (a city, a suburb belt, a rural expanse) within a market.
type clusterInfo struct {
	market     int
	morphology lte.Morphology
	terrain    lte.Terrain
	lat, lon   float64
	stddev     float64
	hardware   string
	software   string
	fiveG      bool
	tac        int
}

func marketOrigin(m int) (lat, lon float64) {
	// Markets sit on a coarse grid far beyond any X2 radius, so relations
	// never cross market borders.
	return float64(m%7) * 10, float64(m/7) * 10
}

// buildTopology synthesizes markets, clusters, eNodeBs and carriers.
func (w *World) buildTopology(r *rng.RNG) {
	opts := w.Opts
	net := &lte.Network{}
	for m := 0; m < opts.Markets; m++ {
		net.Markets = append(net.Markets, lte.Market{
			ID:       m,
			Name:     fmt.Sprintf("Market%d", m+1),
			Timezone: timezones[m%len(timezones)],
		})
	}

	for m := 0; m < opts.Markets; m++ {
		mr := r.Fork(fmt.Sprintf("market-%d", m))
		w.buildMarket(net, m, mr)
	}
	w.Net = net
	if err := net.Validate(); err != nil {
		panic("netsim: generated invalid network: " + err.Error())
	}
}

func (w *World) buildMarket(net *lte.Network, m int, r *rng.RNG) {
	opts := w.Opts
	vendor := []string{"VendorA", "VendorB", "VendorC"}[m%3]
	originLat, originLon := marketOrigin(m)

	// Tuning clusters: roughly one per 8 eNodeBs, at least 6.
	numClusters := opts.ENodeBsPerMarket / 8
	if numClusters < 6 {
		numClusters = 6
	}
	clusters := make([]clusterInfo, numClusters)
	// Market software roll-out state: most clusters on the market's
	// current release, some upgraded.
	baseSoftware := rng.Pick(r, []string{"RAN20Q1", "RAN20Q2"})
	nextSoftware := "RAN20Q3"
	for ci := range clusters {
		c := &clusters[ci]
		c.market = m
		// Morphology mix: 20% urban, 45% suburban, 35% rural.
		switch p := r.Float64(); {
		case p < 0.20:
			c.morphology = lte.Urban
		case p < 0.65:
			c.morphology = lte.Suburban
		default:
			c.morphology = lte.Rural
		}
		c.lat = originLat + r.Float64()
		c.lon = originLon + r.Float64()
		switch c.morphology {
		case lte.Urban:
			c.stddev = 0.010
			c.hardware = rng.Pick(r, []string{"RRH3", "RRH4"})
		case lte.Suburban:
			c.stddev = 0.025
			c.hardware = rng.Pick(r, []string{"RRH2", "RRH3"})
		default:
			c.stddev = 0.060
			c.hardware = rng.Pick(r, []string{"RRH1", "RRH2"})
		}
		c.terrain = drawTerrain(r, c.morphology)
		c.software = baseSoftware
		if r.Bool(0.2) {
			c.software = nextSoftware
		}
		c.fiveG = r.Bool(0.2)
		// Tracking areas span ~2 clusters each, so TACs are coarser than
		// tuning clusters: local tuning is sub-TAC and therefore not fully
		// recoverable from attributes alone, while TAC-dependent
		// parameters still see several TAC values per market.
		c.tac = 8000 + m*16 + ci/2
	}

	// eNodeBs are drawn around cluster centers, denser in urban clusters.
	weights := make([]float64, numClusters)
	for ci := range clusters {
		switch clusters[ci].morphology {
		case lte.Urban:
			weights[ci] = 3
		case lte.Suburban:
			weights[ci] = 2
		default:
			weights[ci] = 1
		}
	}
	for i := 0; i < opts.ENodeBsPerMarket; i++ {
		ci := r.PickWeighted(weights)
		c := &clusters[ci]
		id := lte.ENodeBID(len(net.ENodeBs))
		e := lte.ENodeB{
			ID:     id,
			Market: m,
			Vendor: vendor,
			Lat:    c.lat + r.NormFloat64()*c.stddev,
			Lon:    c.lon + r.NormFloat64()*c.stddev,
		}
		w.ENodeBCluster = append(w.ENodeBCluster, ci)
		w.addCarriers(net, &e, c, r)
		net.ENodeBs = append(net.ENodeBs, e)
	}
}

func drawTerrain(r *rng.RNG, m lte.Morphology) lte.Terrain {
	switch m {
	case lte.Urban:
		if r.Bool(0.40) {
			return lte.TallBuildings
		}
	case lte.Suburban:
		if r.Bool(0.25) {
			return lte.FreewayFacing
		}
		if r.Bool(0.05) {
			return lte.TallBuildings
		}
	default: // rural
		if r.Bool(0.30) {
			return lte.MountainFacing
		}
		if r.Bool(0.10) {
			return lte.FreewayFacing
		}
	}
	return lte.FlatTerrain
}

// addCarriers creates the carriers of one eNodeB: the same frequency set
// on each of the 3 faces, with attributes derived from the cluster.
func (w *World) addCarriers(net *lte.Network, e *lte.ENodeB, c *clusterInfo, r *rng.RNG) {
	freqs := carrierFrequencySet(c.morphology, r)
	originLat, originLon := marketOrigin(c.market)
	border := e.Lat-originLat < 0.05 || e.Lat-originLat > 0.95 ||
		e.Lon-originLon < 0.05 || e.Lon-originLon > 0.95

	for face := 0; face < 3; face++ {
		for _, f := range freqs {
			id := lte.CarrierID(len(net.Carriers))
			car := lte.Carrier{
				ID:     id,
				ENodeB: e.ID,
				Face:   face,

				FrequencyMHz: f,
				Type:         carrierType(f, c.morphology, r),
				Info:         carrierInfo(c, border),
				Morphology:   c.morphology,
				BandwidthMHz: bandwidthOf(f, c.market),
				MIMOMode:     mimoOf(f, c.hardware),
				Hardware:     c.hardware,
				CellSizeMi:   cellSize(f, c.morphology),
				TAC:          c.tac,
				Market:       c.market,
				Vendor:       e.Vendor,
				NeighborChan: neighborChannel(f, freqs),

				SoftwareVersion: c.software,
				Terrain:         c.terrain,

				// Faces point 120 degrees apart; offset the carrier
				// slightly from the mast so positions differ per face.
				Lat: e.Lat + faceOffsetLat(face),
				Lon: e.Lon + faceOffsetLon(face),
			}
			e.Carriers = append(e.Carriers, id)
			net.Carriers = append(net.Carriers, car)
		}
	}
}

func faceOffsetLat(face int) float64 { return [3]float64{0.001, -0.0005, -0.0005}[face] }
func faceOffsetLon(face int) float64 { return [3]float64{0, 0.00087, -0.00087}[face] }

func carrierFrequencySet(m lte.Morphology, r *rng.RNG) []int {
	switch m {
	case lte.Urban:
		set := []int{700, 1900, 2100}
		if r.Bool(0.5) {
			set = append(set, 2300)
		}
		return set
	case lte.Suburban:
		set := []int{700, 1900}
		if r.Bool(0.4) {
			set = append(set, 2100)
		}
		return set
	default:
		set := []int{700}
		if r.Bool(0.6) {
			set = append(set, 850)
		}
		if r.Bool(0.25) {
			set = append(set, 1900)
		}
		return set
	}
}

func carrierType(freq int, m lte.Morphology, r *rng.RNG) lte.CarrierType {
	if freq == 700 && r.Bool(0.10) {
		return lte.FirstNet
	}
	if freq == 850 && m == lte.Rural && r.Bool(0.15) {
		return lte.NBIoT
	}
	return lte.Standard
}

func carrierInfo(c *clusterInfo, border bool) string {
	if border {
		return "border"
	}
	if c.fiveG {
		return "5g-colocated"
	}
	return ""
}

func bandwidthOf(freq, market int) int {
	switch freq {
	case 700:
		return 10
	case 850:
		return 5
	case 1700:
		return 10
	case 1900:
		// Markets differ in their mid-band holdings.
		if market%2 == 0 {
			return 15
		}
		return 20
	case 2100:
		return 20
	default: // 2300
		if market%3 == 0 {
			return 15
		}
		return 20
	}
}

func mimoOf(freq int, hardware string) string {
	switch {
	case freq >= 2000 && (hardware == "RRH3" || hardware == "RRH4"):
		return "4x4"
	case freq >= 1000:
		return "closed-loop"
	default:
		return "2x2"
	}
}

func cellSize(freq int, m lte.Morphology) int {
	switch m {
	case lte.Urban:
		return 1
	case lte.Suburban:
		if freq < 1000 {
			return 3
		}
		return 2
	default:
		if freq < 1000 {
			return 10
		}
		return 5
	}
}

// neighborChannel is the channel id of the dominant co-sited other
// frequency: the next frequency in the eNodeB's set (wrapping), which is
// the layer users are steered to.
func neighborChannel(freq int, freqs []int) int {
	for i, f := range freqs {
		if f == freq {
			return channelOfFreq[freqs[(i+1)%len(freqs)]]
		}
	}
	return channelOfFreq[freq]
}
