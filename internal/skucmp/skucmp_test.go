package skucmp

import (
	"math"
	"testing"

	"rainshine/internal/frame"
	"rainshine/internal/metrics"
	"rainshine/internal/simulate"
	"rainshine/internal/tco"
	"rainshine/internal/topology"
)

var cachedFrame *frame.Frame

func rackDayFrame(t *testing.T) *frame.Frame {
	t.Helper()
	if cachedFrame != nil {
		return cachedFrame
	}
	res, err := simulate.Run(simulate.Config{
		Seed:            5,
		Days:            365,
		Topology:        topology.Config{RacksPerDC: [2]int{130, 110}},
		SkipNonHardware: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := metrics.RackDayFrame(res)
	if err != nil {
		t.Fatal(err)
	}
	cachedFrame = f
	return f
}

func fourSKUs() []topology.SKU {
	return []topology.SKU{topology.S1, topology.S2, topology.S3, topology.S4}
}

func bySKU(ss []Stats) map[string]Stats {
	out := map[string]Stats{}
	for _, s := range ss {
		out[s.SKU] = s
	}
	return out
}

func TestAnalyzeSF(t *testing.T) {
	f := rackDayFrame(t)
	ss, err := AnalyzeSF(f, fourSKUs())
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 4 {
		t.Fatalf("got %d SKUs", len(ss))
	}
	m := bySKU(ss)
	// Fig 14's ordering: S2 has the highest average rate, S4 the lowest
	// among the compute SKUs, with a large (confound-inflated) ratio.
	if m["S2"].Avg <= m["S4"].Avg {
		t.Errorf("SF: S2 avg %v should exceed S4 avg %v", m["S2"].Avg, m["S4"].Avg)
	}
	ratio := m["S2"].Avg / m["S4"].Avg
	if ratio < 5 {
		t.Errorf("SF S2/S4 ratio = %v, want confound-inflated (>5)", ratio)
	}
	for _, s := range ss {
		if s.N == 0 || s.Avg < 0 || s.Peak < s.Avg {
			t.Errorf("implausible stats: %+v", s)
		}
	}
}

// TestAnalyzeSFGroupStats pins the per-SKU statistics on a hand-sized
// frame: sample (n-1) sd, the type-7 99.9th percentile, and a row with a
// missing sku cell counted toward no SKU.
func TestAnalyzeSFGroupStats(t *testing.T) {
	f := frame.New(6)
	if err := f.AddNominalCodes("sku", []uint8{0, 1, 0, 255, 0, 1}, []string{"S1", "S2"}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddContinuous("failures", []float64{0, 1, 2, 100, 4, 1}); err != nil {
		t.Fatal(err)
	}
	ss, err := AnalyzeSF(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []Stats{
		{SKU: "S1", Avg: 2, Peak: 3.996, StdDev: 2, N: 3},
		{SKU: "S2", Avg: 1, Peak: 1, StdDev: 0, N: 2},
	}
	if len(ss) != len(want) {
		t.Fatalf("got %+v", ss)
	}
	for i, w := range want {
		g := ss[i]
		if g.SKU != w.SKU || g.N != w.N || g.Avg != w.Avg || g.StdDev != w.StdDev || math.Abs(g.Peak-w.Peak) > 1e-12 {
			t.Errorf("%s = %+v, want %+v", w.SKU, g, w)
		}
	}
}

func TestAnalyzeMFDeflatesRatio(t *testing.T) {
	f := rackDayFrame(t)
	sf, err := AnalyzeSF(f, fourSKUs())
	if err != nil {
		t.Fatal(err)
	}
	mf, err := AnalyzeMF(f, fourSKUs())
	if err != nil {
		t.Fatal(err)
	}
	sfm, mfm := bySKU(sf), bySKU(mf)
	sfRatio := sfm["S2"].Avg / sfm["S4"].Avg
	mfRatio := mfm["S2"].Avg / mfm["S4"].Avg
	// The MF analysis must (a) keep the ordering, (b) shrink the ratio
	// substantially toward the intrinsic ~4x.
	if mfRatio <= 1 {
		t.Fatalf("MF lost the ordering: ratio %v", mfRatio)
	}
	if mfRatio >= sfRatio*0.8 {
		t.Errorf("MF ratio %v not clearly below SF ratio %v", mfRatio, sfRatio)
	}
	if mfRatio < 2 || mfRatio > 7 {
		t.Errorf("MF ratio %v too far from intrinsic 4x", mfRatio)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	f := frame.New(2)
	if err := f.AddNominalInts("sku", []int{0, 0}, []string{"S1"}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddContinuous("failures", []float64{0, 1}); err != nil {
		t.Fatal(err)
	}
	// Requesting a SKU with no observations errors.
	if _, err := AnalyzeSF(f, []topology.SKU{topology.S7}); err == nil {
		t.Error("no matching SKU should error")
	}
	// MF on a frame without covariates errors.
	if _, err := AnalyzeMF(f, []topology.SKU{topology.S1}); err == nil {
		t.Error("missing covariates should error")
	}
}

func TestCompareTCOVerdictFlip(t *testing.T) {
	// SF thinks the candidate is 10x better; MF knows it is 4x better.
	sfBase := Stats{SKU: "S2", Avg: 1.0, Peak: 10}
	sfCand := Stats{SKU: "S4", Avg: 0.1, Peak: 5}
	mfBase := Stats{SKU: "S2", Avg: 0.6, Peak: 7}
	mfCand := Stats{SKU: "S4", Avg: 0.15, Peak: 5}
	vs, err := CompareTCO(sfBase, sfCand, mfBase, mfCand, 44, []float64{1.0, 1.5}, tco.Default(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 {
		t.Fatalf("verdicts = %d", len(vs))
	}
	// At equal price both approaches favour the candidate.
	if vs[0].SavingsSF <= 0 || vs[0].SavingsMF <= 0 {
		t.Errorf("at price parity both should save: %+v", vs[0])
	}
	// At a premium, SF must be more optimistic than MF (it overestimates
	// the reliability gap).
	if vs[1].SavingsSF <= vs[1].SavingsMF {
		t.Errorf("SF (%v) should be more optimistic than MF (%v) at premium",
			vs[1].SavingsSF, vs[1].SavingsMF)
	}
}

func TestCompareTCOErrors(t *testing.T) {
	s := Stats{Avg: 1, Peak: 1}
	if _, err := CompareTCO(s, s, s, s, 0, []float64{1}, tco.Default(), 3); err == nil {
		t.Error("zero servers should error")
	}
	if _, err := CompareTCO(s, s, s, s, 40, nil, tco.Default(), 3); err == nil {
		t.Error("no ratios should error")
	}
	if _, err := CompareTCO(s, s, s, s, 40, []float64{1}, tco.CostModel{}, 3); err == nil {
		t.Error("bad cost model should error")
	}
}

func TestMFSignificance(t *testing.T) {
	f := rackDayFrame(t)
	sig, err := MFSignificance(f, topology.S2, topology.S4)
	if err != nil {
		t.Fatal(err)
	}
	if sig.Strata < 3 {
		t.Fatalf("only %d shared strata", sig.Strata)
	}
	// The planted 4x intrinsic effect must be confidently detected.
	if sig.PairedT > 0.05 {
		t.Errorf("paired t p = %v, want significant", sig.PairedT)
	}
	if sig.MeanDiff <= 0 {
		t.Errorf("mean diff = %v, want S2 worse than S4", sig.MeanDiff)
	}
	if sig.Wilcoxon < 0 || sig.Wilcoxon > 1 {
		t.Errorf("wilcoxon p = %v", sig.Wilcoxon)
	}
}

func TestMFSignificanceErrors(t *testing.T) {
	f := frame.New(2)
	if err := f.AddNominalInts("sku", []int{0, 0}, []string{"S1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := MFSignificance(f, topology.S2, topology.S4); err == nil {
		t.Error("missing covariates should error")
	}
}
