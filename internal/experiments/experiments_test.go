package experiments

import (
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// tinyOpts pins every budget to its smallest useful value so all sixteen
// experiments run in the test suite. Under -short the budgets shrink
// further: the structural assertions (row counts, orderings, analytic
// columns) hold at any training budget.
func tinyOpts(t *testing.T) Options {
	t.Helper()
	o := Options{
		Quick:    true,
		Seed:     1,
		Override: &Budget{TrainN: 16, ValN: 8, Epochs: 2, TrackSteps: 20},
	}
	if testing.Short() {
		o.Override = &Budget{TrainN: 8, ValN: 4, Epochs: 1, TrackSteps: 6}
	}
	return o
}

func TestRegistryCoversEveryTableAndFigure(t *testing.T) {
	want := []string{
		"table1", "table2", "fig2a", "fig2b", "fig2c", "fig6", "table4", "table5",
		"table6", "table7", "fig7", "fig8", "fig9", "fig10", "table8",
		"table9", "params", "widthsweep",
	}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(reg), len(want))
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Fatalf("experiment %s missing from registry", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID must reject unknown ids")
	}
}

func TestTableRenderAligned(t *testing.T) {
	tab := Table{
		ID: "X", Title: "demo",
		Header: []string{"A", "LongHeader"},
		Rows:   [][]string{{"aaaa", "b"}, {"c", "dd"}},
		Notes:  []string{"hello"},
	}
	out := tab.Render()
	if !strings.Contains(out, "=== X: demo ===") || !strings.Contains(out, "note: hello") {
		t.Fatalf("render missing parts:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 5 {
		t.Fatal("render too short")
	}
}

// cell parses a float table cell (possibly with a trailing unit suffix).
func cell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimSuffix(s, "%"), "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cannot parse cell %q: %v", s, err)
	}
	return v
}

func TestFig2bHalvesBelowPoint9(t *testing.T) {
	tab := Fig2b(tinyOpts(t))
	if len(tab.Rows) < 6 {
		t.Fatalf("fig2b rows %d", len(tab.Rows))
	}
	// Column 3 (FM14): factor 1.00 vs 0.78 — paper: half the memory.
	full := cell(t, tab.Rows[0][3])
	var low float64
	for _, row := range tab.Rows {
		if row[0] == "0.78" {
			low = cell(t, row[3])
		}
	}
	if low > full/2 {
		t.Fatalf("BRAM at 0.78 (%v) not ≤ half of 1.00 (%v)", low, full)
	}
}

func TestFig2cPackingCliff(t *testing.T) {
	tab := Fig2c(tinyOpts(t))
	var w14, w15 []string
	for _, row := range tab.Rows {
		if row[0] == "W14" {
			w14 = row
		}
		if row[0] == "W15" {
			w15 = row
		}
	}
	// FM16 is the final column.
	a := cell(t, w14[len(w14)-1])
	b := cell(t, w15[len(w15)-1])
	if b != 2*a {
		t.Fatalf("W15/FM16 (%v) must be double W14/FM16 (%v)", b, a)
	}
}

func TestFig6Quantiles(t *testing.T) {
	tab := Fig6(tinyOpts(t))
	// The first bin is 0–1%: its fraction must be ≈ 0.31; cumulative at
	// the 6–9% bin boundary ≈ 0.91.
	first := cell(t, tab.Rows[0][1])
	if math.Abs(first-0.31) > 0.03 {
		t.Fatalf("P(area<1%%) = %v, want ≈ 0.31", first)
	}
	var cumAt9 float64
	for _, row := range tab.Rows {
		if strings.HasPrefix(row[0], "6%-9%") {
			cumAt9 = cell(t, row[2])
		}
	}
	if math.Abs(cumAt9-0.91) > 0.03 {
		t.Fatalf("P(area<9%%) = %v, want ≈ 0.91", cumAt9)
	}
}

func TestFig9TilingRows(t *testing.T) {
	tab := Fig9(tinyOpts(t))
	if len(tab.Rows) != 3 {
		t.Fatalf("fig9 rows %d", len(tab.Rows))
	}
	b4 := cell(t, tab.Rows[1][1])
	tiled := cell(t, tab.Rows[2][1])
	if tiled > b4 {
		t.Fatal("tiled BRAM must not exceed separate buffers")
	}
}

func TestFig10Speedup(t *testing.T) {
	tab := Fig10(tinyOpts(t))
	var sp float64
	for _, row := range tab.Rows {
		if row[0] == "TX2" && strings.HasPrefix(row[1], "pipelined") {
			sp = cell(t, row[4])
		}
	}
	if math.Abs(sp-3.35) > 0.1 {
		t.Fatalf("TX2 speedup %v, want ≈ 3.35", sp)
	}
}

func TestTable5ReproducesPublishedScores(t *testing.T) {
	tab := Table5(tinyOpts(t))
	// Every published row's recomputed TS must match its published TS.
	checked := 0
	for _, row := range tab.Rows {
		if row[len(row)-1] == "-" {
			continue
		}
		ts := cell(t, row[4])
		pub := cell(t, row[5])
		if math.Abs(ts-pub) > 0.02 {
			t.Fatalf("%s: TS %v vs published %v", row[0], ts, pub)
		}
		checked++
	}
	if checked != 6 {
		t.Fatalf("checked %d published rows, want 6", checked)
	}
	// The simulated SkyNet FPS must land near the paper's 67.33.
	sim := tab.Rows[0]
	fps := cell(t, sim[2])
	if fps < 40 || fps > 110 {
		t.Fatalf("simulated TX2 FPS %v outside the plausible band", fps)
	}
}

func TestTable6SimulatedRowPlausible(t *testing.T) {
	tab := Table6(tinyOpts(t))
	sim := tab.Rows[0]
	fps := cell(t, sim[2])
	if fps < 10 || fps > 80 {
		t.Fatalf("simulated Ultra96 FPS %v outside the plausible band", fps)
	}
	power := cell(t, sim[3])
	if power < 4 || power > 10 {
		t.Fatalf("simulated power %vW implausible", power)
	}
}

func TestParamsTable(t *testing.T) {
	tab := Params(tinyOpts(t))
	if len(tab.Rows) != 5 {
		t.Fatalf("params rows %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		got := cell(t, row[1])
		paper := cell(t, row[2])
		if math.Abs(got-paper)/paper > 0.06 {
			t.Fatalf("%s params %v vs paper %v", row[0], got, paper)
		}
	}
}

// TestTrainingExperimentsRun exercises every training-based experiment at a
// minimal budget: rows present, metrics parse, values in range.
func TestTrainingExperimentsRun(t *testing.T) {
	o := tinyOpts(t)
	cases := []struct {
		run  func(Options) Table
		rows int
	}{
		{Table2, 5},
		{Table4, 6},
		{Table7, 6},
		{Fig2a, 11},
	}
	if testing.Short() {
		// One training experiment keeps the path covered; Table7 trains a
		// single model (the others train one per row), so it is the cheapest.
		cases = []struct {
			run  func(Options) Table
			rows int
		}{{Table7, 6}}
	}
	for _, c := range cases {
		tab := c.run(o)
		if len(tab.Rows) != c.rows {
			t.Fatalf("%s: %d rows, want %d", tab.ID, len(tab.Rows), c.rows)
		}
		if tab.Render() == "" {
			t.Fatalf("%s renders empty", tab.ID)
		}
	}
}

func TestTrackingExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("table8/table9 train trackers over three backbones — beyond the -short budget")
	}
	o := tinyOpts(t)
	t8 := Table8(o)
	if len(t8.Rows) != 3 {
		t.Fatalf("table8 rows %d", len(t8.Rows))
	}
	for _, row := range t8.Rows {
		ao := cell(t, row[1])
		if ao < 0 || ao > 1 {
			t.Fatalf("AO %v out of range", ao)
		}
		if cell(t, row[4]) <= 0 || cell(t, row[5]) <= 0 {
			t.Fatal("FPS columns must be positive")
		}
	}
	// The modeled 1080Ti column must preserve the paper's ordering:
	// AlexNet fastest, SkyNet second, ResNet-50 slowest.
	alex := cell(t, t8.Rows[0][5])
	r50 := cell(t, t8.Rows[1][5])
	sky := cell(t, t8.Rows[2][5])
	if !(alex > sky && sky > r50) {
		t.Fatalf("modeled FPS ordering wrong: alex %v sky %v r50 %v", alex, sky, r50)
	}
	t9 := Table9(o)
	if len(t9.Rows) != 2 {
		t.Fatalf("table9 rows %d", len(t9.Rows))
	}
}

func TestQualitativeFiguresWriteOutputs(t *testing.T) {
	o := tinyOpts(t)
	dir := t.TempDir()
	o.OutDir = dir
	f7 := Fig7(o)
	if len(f7.Rows) != 4 {
		t.Fatalf("fig7 rows %d", len(f7.Rows))
	}
	f8 := Fig8(o)
	if len(f8.Rows) == 0 {
		t.Fatal("fig8 produced no rows")
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ppm int
	for _, f := range files {
		if filepath.Ext(f.Name()) == ".ppm" {
			ppm++
		}
	}
	if ppm < 4 {
		t.Fatalf("expected PPM renderings, found %d", ppm)
	}
}

func TestTable1Survey(t *testing.T) {
	tab := Table1(tinyOpts(t))
	if len(tab.Rows) != 11 {
		t.Fatalf("table1 rows %d, want 11", len(tab.Rows))
	}
	notes := strings.Join(tab.Notes, "\n")
	if !strings.Contains(notes, "internal/quant") {
		t.Fatal("table1 must map optimizations to packages")
	}
	if !strings.Contains(notes, "network pruning       -> not implemented: the bottom-up flow needs no pruning") {
		t.Fatal("table1 must say pruning is not implemented, and why")
	}
	if !strings.Contains(notes, "TensorRT / FP16       -> not implemented") {
		t.Fatal("table1 must say FP16 is not implemented")
	}
}

func TestWidthSweepRows(t *testing.T) {
	tab := WidthSweep(tinyOpts(t))
	if len(tab.Rows) != 3 {
		t.Fatalf("widthsweep rows %d", len(tab.Rows))
	}
	// Parameters and model FPS must move monotonically with width.
	prevParams, prevFPS := 0.0, 1e18
	for _, row := range tab.Rows {
		p := cell(t, row[1])
		fps := cell(t, row[3])
		if p <= prevParams {
			t.Fatal("params must grow with width")
		}
		if fps >= prevFPS {
			t.Fatal("modeled FPS must shrink with width")
		}
		prevParams, prevFPS = p, fps
	}
}

func TestTableMarkdown(t *testing.T) {
	tab := Table{
		ID: "T", Title: "demo",
		Header: []string{"A", "B"},
		Rows:   [][]string{{"1", "2"}},
		Notes:  []string{"plain note", "multi\nline art", "  1 indented key -> value "},
	}
	md := tab.Markdown()
	if !strings.Contains(md, "| A | B |") || !strings.Contains(md, "| 1 | 2 |") {
		t.Fatalf("markdown table malformed:\n%s", md)
	}
	if !strings.Contains(md, "*plain note*") || strings.Contains(md, "line art") {
		t.Fatalf("markdown notes handling wrong:\n%s", md)
	}
	// Emphasis opens only on a non-space: "*  1 …*" shows its asterisks.
	if !strings.Contains(md, "\n*1 indented key -> value*\n") {
		t.Fatalf("an indented note is not emphasis:\n%s", md)
	}
}

// TestModelOnlyTablesMatchCommittedOutput: the experiments that train nothing
// render, at the default options, byte for byte the blocks of the committed
// experiments_output.txt (what `skynet-experiments -exp all -quiet` prints).
// Four of them price SkyNet C on the hardware models: Tables 5 and 6,
// Figure 2(c) and Figure 9.
func TestModelOnlyTablesMatchCommittedOutput(t *testing.T) {
	b, err := os.ReadFile("../../experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	committed := "\n" + string(b)
	for _, id := range []string{"table1", "table5", "table6", "fig2c", "fig9", "fig10", "params"} {
		e, _ := ByID(id)
		got := e.Run(Options{Quick: true, Seed: 1}).Render()
		if !strings.Contains(committed, "\n"+got+"\n") {
			head, _, _ := strings.Cut(got, "\n")
			_, block, _ := strings.Cut(committed, "\n"+head+"\n")
			block, _, _ = strings.Cut(block, "\n\n")
			t.Fatalf("%s renders\n%s\nexperiments_output.txt has\n%s\n%s", id, got, head, block)
		}
	}
}

// TestFig2aFMColumnIsOneImage: Figure 2(a)'s FM column is one 48×48 image's
// feature maps, whatever the validation-set size. It used to be the last
// evaluation batch's: 8 images at 128, 1 at 129.
func TestFig2aFMColumnIsOneImage(t *testing.T) {
	fm := func(valN int) []string {
		tab := Fig2a(Options{Quick: true, Seed: 1, Override: &Budget{TrainN: 8, ValN: valN, Epochs: 1}})
		var col []string
		for _, row := range tab.Rows {
			col = append(col, row[3])
		}
		return col
	}
	a, b := fm(128), fm(129)
	if strings.Join(a, " ") != strings.Join(b, " ") {
		t.Fatalf("FM column at 128 validation images %v, at 129 %v", a, b)
	}
	if a[0] != "22.8" {
		t.Fatalf("float32 FMs %s KB, want 22.8", a[0])
	}
}

// maskRendered rewrites a Render block's table rows as their cells joined
// by " | ", with every cell under a header in cols replaced by "*". The
// columns are read off the block's dashed rule, so the mask does not depend
// on how wide a masked cell happens to be; the title and notes are kept
// verbatim.
func maskRendered(block string, cols []string) string {
	lines := strings.Split(block, "\n")
	if len(cols) == 0 || len(lines) < 3 {
		return block
	}
	var starts []int // in runes: Render pads each cell to a rune count
	for i, c := range lines[2] {
		if c == '-' && (i == 0 || lines[2][i-1] == ' ') {
			starts = append(starts, i)
		}
	}
	cellsOf := func(line string) []string {
		r := []rune(line)
		cells := make([]string, len(starts))
		for i, s := range starts {
			end := len(r)
			if i+1 < len(starts) && starts[i+1] < end {
				end = starts[i+1]
			}
			if s < end {
				cells[i] = strings.TrimSpace(string(r[s:end]))
			}
		}
		return cells
	}
	masked := markedColumns(cellsOf(lines[1]), cols)
	for k := 1; k < len(lines) && lines[k] != "" && !strings.HasPrefix(lines[k], "note: "); k++ {
		cells := cellsOf(lines[k])
		for _, i := range masked {
			if k > 2 {
				cells[i] = "*"
			}
		}
		lines[k] = strings.Join(cells, " | ")
	}
	return strings.Join(lines, "\n")
}

// maskMarkdown replaces, in a Markdown rendering, every data cell under a
// header in cols with "*".
func maskMarkdown(md string, cols []string) string {
	lines := strings.Split(md, "\n")
	var masked []int
	header := -1
	for k, l := range lines {
		if !strings.HasPrefix(l, "| ") {
			continue
		}
		cells := strings.Split(strings.TrimSuffix(strings.TrimPrefix(l, "| "), " |"), " | ")
		switch {
		case header < 0:
			header, masked = k, markedColumns(cells, cols)
		case k > header+1:
			for _, i := range masked {
				if i < len(cells) {
					cells[i] = "*"
				}
			}
			lines[k] = "| " + strings.Join(cells, " | ") + " |"
		}
	}
	return strings.Join(lines, "\n")
}

// markedColumns returns the indices of the header cells named in cols.
func markedColumns(header, cols []string) []int {
	var idx []int
	for i, h := range header {
		for _, c := range cols {
			if h == c {
				idx = append(idx, i)
			}
		}
	}
	return idx
}

// TestWallClockMaskHidesOnlyMarkedCells: the record check's mask hides the
// cells of a table's wall-clock columns, however wide they render, and
// nothing else.
func TestWallClockMaskHidesOnlyMarkedCells(t *testing.T) {
	tab := func(fps, ao string) Table {
		return Table{
			ID: "T", Title: "demo",
			Header:    []string{"Backbone", "AO", "FPS (Go)"},
			Rows:      [][]string{{"SkyNet", ao, fps}, {"AlexNet", "0.2", "7.0"}},
			Notes:     []string{"n"},
			WallClock: []string{"FPS (Go)"},
		}
	}
	a, b, c := tab("12.5", "0.1"), tab("1234.5", "0.1"), tab("12.5", "0.3")
	a.Rows[1][0], b.Rows[1][0], c.Rows[1][0] = "AlexNet×2", "AlexNet×2", "AlexNet×2"
	if maskRendered(a.Render(), a.WallClock) != maskRendered(b.Render(), b.WallClock) {
		t.Fatalf("renders differing only in FPS (Go) differ after the mask:\n%s\n%s", a.Render(), b.Render())
	}
	if maskMarkdown(a.Markdown(), a.WallClock) != maskMarkdown(b.Markdown(), b.WallClock) {
		t.Fatal("Markdown differing only in FPS (Go) differs after the mask")
	}
	if maskRendered(a.Render(), a.WallClock) == maskRendered(c.Render(), c.WallClock) ||
		maskMarkdown(a.Markdown(), a.WallClock) == maskMarkdown(c.Markdown(), c.WallClock) {
		t.Fatal("the mask hid a change of the AO column")
	}
	if got := maskRendered(a.Render(), nil); got != a.Render() {
		t.Fatalf("a table with no wall-clock column is not left as rendered:\n%s", got)
	}
}
