// Package provision answers Q1: how many spares must be kept, per rack,
// to meet a workload's availability SLA — comparing the paper's three
// approaches (Section VI):
//
//   - LB (lower bound): per-rack spares from that rack's own measured μ
//     distribution, an oracle no deployable scheme can beat;
//   - SF (single factor): one pooled μ CDF per workload, yielding one
//     uniform spare fraction for every rack of the workload — the
//     conservative one-size-fits-all scheme;
//   - MF (multi factor): CART-clustered rack groups with per-cluster
//     spare fractions, which approaches LB when the clusters capture the
//     factors that actually drive failures.
//
// Both server-level (Q1-A) and component-level (Q1-B) provisioning are
// implemented, at daily or hourly granularity.
package provision

import (
	"errors"
	"fmt"
	"math"

	"rainshine/internal/cart"
	"rainshine/internal/core"
	"rainshine/internal/failure"
	"rainshine/internal/metrics"
	"rainshine/internal/simulate"
	"rainshine/internal/tco"
	"rainshine/internal/topology"
)

// Approach identifies a provisioning scheme.
type Approach int

// The three approaches of Section VI.
const (
	LB Approach = iota
	MF
	SF
)

// String names the approach as the figures label it.
func (a Approach) String() string {
	switch a {
	case LB:
		return "LB"
	case MF:
		return "MF"
	case SF:
		return "SF"
	default:
		return fmt.Sprintf("Approach(%d)", int(a))
	}
}

// DefaultSLAs are the availability mandates evaluated in Figs 10-13.
var DefaultSLAs = []float64{0.90, 0.95, 1.00}

// rackNeed holds one rack's μ-derived requirement.
type rackNeed struct {
	rack  *topology.Rack
	units int // provisionable units (servers, disks, or DIMMs)
	muMax int // worst-window device unavailability
}

// spares returns the spare units the rack needs at the SLA: the worst
// window's unavailability minus the allowance (1-SLA) of units,
// clamped to [0, units].
func (n rackNeed) spares(sla float64) int {
	// The epsilon absorbs binary-representation error in (1-sla), e.g.
	// (1-0.9)*40 = 3.9999... which must count as an allowance of 4.
	allowance := int(math.Floor((1-sla)*float64(n.units) + 1e-9))
	s := n.muMax - allowance
	if s < 0 {
		s = 0
	}
	if s > n.units {
		s = n.units
	}
	return s
}

// fraction returns spares as a fraction of the rack's units.
func (n rackNeed) fraction(sla float64) float64 {
	if n.units == 0 {
		return 0
	}
	return float64(n.spares(sla)) / float64(n.units)
}

// ServerLevel is the result of a Q1-A analysis for one workload and
// granularity.
type ServerLevel struct {
	Workload    topology.Workload
	Granularity metrics.Granularity
	SLAs        []float64
	// Overprov[approach][i] is the over-provisioned capacity fraction
	// at SLAs[i].
	Overprov map[Approach][]float64
	// Clustering is the MF rack grouping (nil if clustering failed to
	// find structure; then MF degenerates to SF).
	Clustering *core.Clustering
	// ClusterFractions[c] lists the per-rack requirement fractions
	// (100% SLA) of cluster c — Fig 11's per-cluster CDF inputs.
	ClusterFractions [][]float64
	// PooledFractions lists every rack's requirement fraction (the SF
	// curve of Fig 11).
	PooledFractions []float64
	// Racks is the number of racks hosting the workload.
	Racks int
}

// Options tunes the MF clustering stage; the zero value reproduces the
// paper's configuration. Ablation studies (cmd/rainshine ablate) sweep
// these to quantify how much each modelling choice contributes.
type Options struct {
	// Features are the candidate clustering factors. Nil means
	// DefaultClusterFeatures.
	Features []string
	// MaxClusters bounds the number of MF groups. Zero means 10.
	MaxClusters int
	// CART overrides the tree configuration. Zero value means
	// {MaxDepth: 5, MinSplit: 8, MinLeaf: 4, CP: 0.004}.
	CART cart.Config
	// AutoCP selects the tree complexity by 5-fold cross-validation
	// (one-standard-error rule) instead of the fixed CP.
	AutoCP bool
}

func (o Options) withDefaults() Options {
	if o.Features == nil {
		o.Features = DefaultClusterFeatures
	}
	if o.MaxClusters == 0 {
		o.MaxClusters = 10
	}
	if o.CART.MaxDepth == 0 && o.CART.MinSplit == 0 {
		o.CART = cart.Config{MaxDepth: 5, MinSplit: 8, MinLeaf: 4, CP: 0.004}
	}
	return o
}

// DefaultClusterFeatures are the candidate factors for rack clustering
// (Table III static features).
var DefaultClusterFeatures = []string{"dc", "region", "sku", "power_kw", "age_months"}

// maxClusters bounds the number of MF groups, keeping them reviewable.
const maxClusters = 10

// AllComponents selects every hardware failure (any one takes a server
// down), the Q1-A view.
var AllComponents = []failure.Component{failure.Disk, failure.DIMM, failure.ServerOther}

// AnalyzeServerLevel runs Q1-A for a workload at the given granularity
// with the paper's default MF configuration.
func AnalyzeServerLevel(res *simulate.Result, wl topology.Workload, g metrics.Granularity, slas []float64) (*ServerLevel, error) {
	return AnalyzeServerLevelWith(res, wl, g, slas, Options{})
}

// AnalyzeServerLevelWith runs Q1-A with explicit MF options.
func AnalyzeServerLevelWith(res *simulate.Result, wl topology.Workload, g metrics.Granularity, slas []float64, opts Options) (*ServerLevel, error) {
	opts = opts.withDefaults()
	if len(slas) == 0 {
		slas = DefaultSLAs
	}
	racks := res.Fleet.RacksOf(wl)
	if len(racks) == 0 {
		return nil, fmt.Errorf("provision: no racks host workload %v", wl)
	}
	needs, err := resourceNeeds(res, racks, AllComponents, func(r *topology.Rack) int { return r.Servers }, g)
	if err != nil {
		return nil, err
	}
	out := &ServerLevel{
		Workload:    wl,
		Granularity: g,
		SLAs:        slas,
		Overprov:    map[Approach][]float64{LB: {}, MF: {}, SF: {}},
		Racks:       len(racks),
	}
	for _, n := range needs {
		out.PooledFractions = append(out.PooledFractions, n.fraction(1.0))
	}

	clustering, clusterOf, err := clusterRacks(res, racks, needs, opts)
	if err != nil {
		return nil, err
	}
	out.Clustering = clustering
	if clustering != nil {
		out.ClusterFractions = make([][]float64, clustering.NumClusters())
		for i, n := range needs {
			c := clusterOf[i]
			out.ClusterFractions[c] = append(out.ClusterFractions[c], n.fraction(1.0))
		}
	}

	for _, sla := range slas {
		if sla <= 0 || sla > 1 {
			return nil, fmt.Errorf("provision: SLA %v outside (0,1]", sla)
		}
		out.Overprov[LB] = append(out.Overprov[LB], lbFraction(needs, sla))
		out.Overprov[SF] = append(out.Overprov[SF], sfFraction(needs, sla))
		out.Overprov[MF] = append(out.Overprov[MF], mfFraction(needs, clusterOf, clustering, sla))
	}
	return out, nil
}

// lbFraction: capacity-weighted mean of per-rack oracle requirements.
func lbFraction(needs []rackNeed, sla float64) float64 {
	spares, units := 0, 0
	for _, n := range needs {
		spares += n.spares(sla)
		units += n.units
	}
	if units == 0 {
		return 0
	}
	return float64(spares) / float64(units)
}

// sfFraction: the uniform fraction that satisfies every rack — the max
// of the per-rack requirement fractions, since SF cannot tell racks
// apart.
func sfFraction(needs []rackNeed, sla float64) float64 {
	f := 0.0
	for _, n := range needs {
		if v := n.fraction(sla); v > f {
			f = v
		}
	}
	return f
}

// mfFraction: per-cluster uniform fractions, capacity-weighted.
func mfFraction(needs []rackNeed, clusterOf []int, clustering *core.Clustering, sla float64) float64 {
	if clustering == nil {
		return sfFraction(needs, sla)
	}
	nc := clustering.NumClusters()
	maxFrac := make([]float64, nc)
	unitsIn := make([]int, nc)
	for i, n := range needs {
		c := clusterOf[i]
		if v := n.fraction(sla); v > maxFrac[c] {
			maxFrac[c] = v
		}
		unitsIn[c] += n.units
	}
	spares, units := 0.0, 0
	for c := 0; c < nc; c++ {
		spares += maxFrac[c] * float64(unitsIn[c])
		units += unitsIn[c]
	}
	if units == 0 {
		return 0
	}
	return spares / float64(units)
}

// clusterRacks fits the MF grouping over the workload's racks using the
// per-rack requirement fraction (100% SLA) as the target.
func clusterRacks(res *simulate.Result, racks []*topology.Rack, needs []rackNeed, opts Options) (*core.Clustering, []int, error) {
	opts = opts.withDefaults()
	if opts.CART.Workers == 0 {
		// Inherit the study-wide worker budget (deterministic for any
		// value, so this only changes speed).
		opts.CART.Workers = res.Cfg.Workers
	}
	full, err := metrics.RackFeatureFrame(res.Fleet, res.Days)
	if err != nil {
		return nil, nil, err
	}
	rows := make([]int, len(racks))
	for i, r := range racks {
		rows[i] = r.ID
	}
	sub := full.Subset(rows)
	target := make([]float64, len(needs))
	for i, n := range needs {
		target[i] = n.fraction(1.0)
	}
	if err := sub.AddContinuous("req_frac", target); err != nil {
		return nil, nil, err
	}
	var clustering *core.Clustering
	if opts.AutoCP {
		clustering, err = core.ClusterCV(sub, "req_frac", opts.Features, opts.CART, opts.MaxClusters, 5, 1)
	} else {
		clustering, err = core.Cluster(sub, "req_frac", opts.Features, opts.CART, opts.MaxClusters)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("provision: clustering: %w", err)
	}
	return clustering, clustering.Assignment, nil
}

// TCOSavings returns the relative TCO savings of MF over SF per SLA
// (Table IV) under the given cost model.
func (s *ServerLevel) TCOSavings(m tco.CostModel) ([]float64, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	out := make([]float64, len(s.SLAs))
	for i := range s.SLAs {
		out[i] = m.RelativeSavings(s.Overprov[SF][i], s.Overprov[MF][i])
	}
	return out, nil
}

// ComponentLevel is the result of a Q1-B analysis: the cost of spare
// pools at 100% availability, provisioning disks/DIMMs separately from
// server spares, versus all-server spares (Fig 13).
type ComponentLevel struct {
	Workload    topology.Workload
	Granularity metrics.Granularity
	// ComponentCostPct[a] is the spare cost of approach a with
	// component-level pools, as % of the workload's server fleet cost.
	ComponentCostPct map[Approach]float64
	// ServerCostPct[a] is the spare cost with server-level pools only.
	ServerCostPct map[Approach]float64
}

// AnalyzeComponentLevel runs Q1-B at 100% availability SLA.
func AnalyzeComponentLevel(res *simulate.Result, wl topology.Workload, g metrics.Granularity, m tco.CostModel) (*ComponentLevel, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	racks := res.Fleet.RacksOf(wl)
	if len(racks) == 0 {
		return nil, fmt.Errorf("provision: no racks host workload %v", wl)
	}
	// Resource classes: disks, DIMMs, and server-other (covered by
	// server spares in both schemes), plus all-hardware for the
	// server-level comparison.
	disk, err := resourceNeeds(res, racks, []failure.Component{failure.Disk}, func(r *topology.Rack) int { return r.Disks() }, g)
	if err != nil {
		return nil, err
	}
	dimm, err := resourceNeeds(res, racks, []failure.Component{failure.DIMM}, func(r *topology.Rack) int { return r.DIMMs() }, g)
	if err != nil {
		return nil, err
	}
	srvOther, err := resourceNeeds(res, racks, []failure.Component{failure.ServerOther}, func(r *topology.Rack) int { return r.Servers }, g)
	if err != nil {
		return nil, err
	}
	srvAll, err := resourceNeeds(res, racks, AllComponents, func(r *topology.Rack) int { return r.Servers }, g)
	if err != nil {
		return nil, err
	}

	fleetCost := 0.0
	for _, r := range racks {
		fleetCost += float64(r.Servers) * m.ServerUnit
	}

	out := &ComponentLevel{
		Workload:         wl,
		Granularity:      g,
		ComponentCostPct: map[Approach]float64{},
		ServerCostPct:    map[Approach]float64{},
	}
	for _, a := range []Approach{LB, MF, SF} {
		dC, err := approachSpares(res, racks, disk, a)
		if err != nil {
			return nil, err
		}
		mC, err := approachSpares(res, racks, dimm, a)
		if err != nil {
			return nil, err
		}
		sC, err := approachSpares(res, racks, srvOther, a)
		if err != nil {
			return nil, err
		}
		allC, err := approachSpares(res, racks, srvAll, a)
		if err != nil {
			return nil, err
		}
		out.ComponentCostPct[a] = 100 * m.SpareCost(sC, dC, mC) / fleetCost
		out.ServerCostPct[a] = 100 * m.SpareCost(allC, 0, 0) / fleetCost
	}
	return out, nil
}

// resourceNeeds computes per-rack needs for one resource class, taking
// μ for the given racks only.
func resourceNeeds(res *simulate.Result, racks []*topology.Rack, comps []failure.Component, units func(*topology.Rack) int, g metrics.Granularity) ([]rackNeed, error) {
	dists, err := metrics.MuDistributions(res, comps, g, racks...)
	if err != nil {
		return nil, err
	}
	needs := make([]rackNeed, len(racks))
	for i, r := range racks {
		needs[i] = rackNeed{rack: r, units: units(r), muMax: dists[i].Max()}
	}
	return needs, nil
}

// approachSpares returns the total spare units an approach provisions
// for one resource class at 100% SLA.
func approachSpares(res *simulate.Result, racks []*topology.Rack, needs []rackNeed, a Approach) (float64, error) {
	switch a {
	case LB:
		total := 0.0
		for _, n := range needs {
			total += float64(n.spares(1.0))
		}
		return total, nil
	case SF:
		f := sfFraction(needs, 1.0)
		total := 0.0
		for _, n := range needs {
			total += f * float64(n.units)
		}
		return total, nil
	case MF:
		clustering, clusterOf, err := clusterRacks(res, racks, needs, Options{})
		if err != nil {
			return 0, err
		}
		frac := mfFraction(needs, clusterOf, clustering, 1.0)
		total := 0.0
		for _, n := range needs {
			total += float64(n.units)
		}
		return frac * total, nil
	default:
		return 0, errors.New("provision: unknown approach")
	}
}
