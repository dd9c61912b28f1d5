package rainshine

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"rainshine/internal/rng"
)

// blankCells returns the CSV table with about frac of the cells in the
// named columns emptied, chosen by a fixed-seed stream so the table is
// the same on every run.
func blankCells(t *testing.T, table []byte, cols []string, frac float64) []byte {
	t.Helper()
	recs, err := csv.NewReader(bytes.NewReader(table)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var idx []int
	for _, name := range cols {
		found := false
		for c, h := range recs[0] {
			if h == name {
				idx = append(idx, c)
				found = true
			}
		}
		if !found {
			t.Fatalf("export has no %q column", name)
		}
	}
	src := rng.New(2017)
	for _, rec := range recs[1:] {
		for _, c := range idx {
			if src.Float64() < frac {
				rec[c] = ""
			}
		}
	}
	var out bytes.Buffer
	w := csv.NewWriter(&out)
	if err := w.WriteAll(recs); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestClimateCSVBlankCellsGolden pins the untrusted Q3 path: a rack-day
// export with about 2% of its dc, temp, rh and disk_failures cells
// blanked must give the recorded report. Blank dc cells reach the
// analysis as out-of-range level codes, so this is the input that
// catches grouping code indexing by the raw code.
func TestClimateCSVBlankCellsGolden(t *testing.T) {
	s := testStudy(t)
	var buf bytes.Buffer
	if err := s.ExportRackDaysCSV(&buf); err != nil {
		t.Fatal(err)
	}
	table := blankCells(t, buf.Bytes(), []string{"dc", "temp", "rh", "disk_failures"}, 0.02)
	rep, err := AnalyzeClimateCSV(bytes.NewReader(table))
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "climate_csv_blanked.json")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("climate report on the blanked table changed:\ngot  %s\nwant %s", got, want)
	}
}
