package stats

import (
	"math"
	"testing"

	"rainshine/internal/rng"
)

// summarizeGroups is the reference GroupMoments must match bit for bit:
// each group's values collected in row order, then Summarize.
func summarizeGroups(t *testing.T, keys []int32, values []float64, k int) []Moments {
	t.Helper()
	groups := make([][]float64, k)
	for r, g := range keys {
		if g >= 0 && int(g) < k {
			groups[g] = append(groups[g], values[r])
		}
	}
	out := make([]Moments, k)
	for g, xs := range groups {
		if len(xs) == 0 {
			continue
		}
		s, err := Summarize(xs)
		if err != nil {
			t.Fatal(err)
		}
		out[g] = Moments{N: s.N, Mean: s.Mean, StdDev: s.StdDev}
	}
	return out
}

// sameBits reports whether a and b are the same float64 bits. Two NaNs
// count as the same: which NaN payload an operation on two NaNs keeps
// depends on the operand order the compiler emits, and no output reads
// it (NaN prints as NaN and encodes as JSON null).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func sameMoments(t *testing.T, label string, got, want []Moments) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d groups, want %d", label, len(got), len(want))
	}
	for g := range want {
		if got[g].N != want[g].N || !sameBits(got[g].Mean, want[g].Mean) || !sameBits(got[g].StdDev, want[g].StdDev) {
			t.Fatalf("%s: group %d = %+v, want %+v", label, g, got[g], want[g])
		}
	}
}

// momentValue draws a value that stresses the float paths: mostly small
// counts like rack-day failures, some wide-range reals, and the
// non-finite values dirty tables carry.
func momentValue(src *rng.Source) float64 {
	switch src.IntN(20) {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3, 4, 5:
		return (src.Float64() - 0.5) * math.Pow(10, float64(src.IntN(30)-15))
	default:
		return float64(src.IntN(4))
	}
}

func TestGroupMomentsMatchesSummarize(t *testing.T) {
	src := rng.New(15)
	for trial := 0; trial < 300; trial++ {
		k := src.IntN(8)
		n := src.IntN(60)
		keys := make([]int32, n)
		values := make([]float64, n)
		finite := trial%2 == 0
		for r := range keys {
			// Keys run past both ends of [0, k): those rows join no group.
			keys[r] = int32(src.IntN(k+4) - 2)
			values[r] = momentValue(src)
			for finite && (math.IsNaN(values[r]) || math.IsInf(values[r], 0)) {
				values[r] = momentValue(src)
			}
		}
		sameMoments(t, "GroupMoments", GroupMoments(keys, values, k), summarizeGroups(t, keys, values, k))
	}
}

func TestGroupMomentsEdgeGroups(t *testing.T) {
	keys := []int32{2, -1, 2, 0, 7, math.MaxInt32, 2}
	values := []float64{1, 5, 4, 3, 9, 9, 10}
	got := GroupMoments(keys, values, 4)
	want := []Moments{{N: 1, Mean: 3}, {}, {N: 3, Mean: 5, StdDev: math.Sqrt(21)}, {}}
	sameMoments(t, "edge groups", got, want)
	sameMoments(t, "edge groups vs Summarize", got, summarizeGroups(t, keys, values, 4))
	if got := GroupMoments(nil, nil, 3); len(got) != 3 || got[0] != (Moments{}) {
		t.Errorf("no rows = %+v", got)
	}
}

func TestBinnedMomentsMatchesSummarize(t *testing.T) {
	src := rng.New(16)
	edges := []float64{0, 20, 30, 40, 101}
	for trial := 0; trial < 200; trial++ {
		n := src.IntN(80)
		keys := make([]float64, n)
		values := make([]float64, n)
		bins := make([]int32, n)
		for r := range keys {
			keys[r] = (src.Float64() - 0.1) * 120
			if src.IntN(10) == 0 {
				keys[r] = momentValue(src)
			}
			values[r] = momentValue(src)
			bins[r] = -1
			if !math.IsNaN(keys[r]) {
				bins[r] = int32(bucketIndex(edges, keys[r]))
			}
		}
		got, err := BinnedMoments(keys, values, edges)
		if err != nil {
			t.Fatal(err)
		}
		sameMoments(t, "BinnedMoments", got, summarizeGroups(t, bins, values, len(edges)-1))
	}
}

// FuzzGroupMomentsMatchesSummarize decodes each byte pair as a (key,
// value) row, with keys spilling past [0, k) and values covering NaN and
// ±Inf, and checks GroupMoments bit for bit against Summarize.
func FuzzGroupMomentsMatchesSummarize(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 1, 2, 0, 3, 2, 250})
	f.Add(uint8(1), []byte{0, 7})
	f.Add(uint8(0), []byte{})
	f.Add(uint8(4), []byte{5, 0, 255, 1, 3, 253, 3, 254, 3, 9})
	f.Fuzz(func(t *testing.T, k uint8, raw []byte) {
		k %= 16
		n := len(raw) / 2
		keys := make([]int32, n)
		values := make([]float64, n)
		for r := 0; r < n; r++ {
			keys[r] = int32(raw[2*r]%(k+4)) - 2
			switch b := raw[2*r+1]; b {
			case 255:
				values[r] = math.NaN()
			case 254:
				values[r] = math.Inf(1)
			case 253:
				values[r] = math.Inf(-1)
			default:
				values[r] = (float64(b) - 100) / 7
			}
		}
		sameMoments(t, "fuzz", GroupMoments(keys, values, int(k)), summarizeGroups(t, keys, values, int(k)))
	})
}
