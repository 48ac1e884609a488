// Package experiments regenerates every table and figure of the paper's
// evaluation from this repository's own simulators and training runs. Each
// experiment returns a Table whose rows mirror the paper's presentation;
// EXPERIMENTS.md records the paper-vs-measured comparison. Published
// competitor rows (Tables 5 and 6) are constants — everything in a SkyNet
// row is produced by our own models.
package experiments

import (
	"fmt"
	"strings"

	"skynet/internal/dataset"
)

// Options tunes experiment budgets.
type Options struct {
	// Quick selects the CPU-minutes budget; full mode trains longer on
	// more data.
	Quick bool
	Seed  int64
	// OutDir, when non-empty, receives PPM renderings for the qualitative
	// figures (7 and 8).
	OutDir string
	// Log receives progress lines; nil discards them.
	Log func(format string, args ...any)
	// Override, when non-nil, pins the training budgets exactly (used by
	// the test suite to exercise every experiment in seconds).
	Override *Budget
}

// Budget pins experiment training budgets.
type Budget struct {
	TrainN, ValN, Epochs, TrackSteps int
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		o.Log(format, args...)
	}
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// Detection training budget.
func (o Options) trainN() int {
	if o.Override != nil {
		return o.Override.TrainN
	}
	if o.Quick {
		return 96
	}
	return 512
}

func (o Options) valN() int {
	if o.Override != nil {
		return o.Override.ValN
	}
	if o.Quick {
		return 48
	}
	return 192
}

func (o Options) epochs() int {
	if o.Override != nil {
		return o.Override.Epochs
	}
	if o.Quick {
		return 12
	}
	return 40
}

// width is the channel multiplier applied to every trained architecture so
// the relative comparisons run in CPU minutes.
func (o Options) width() float64 { return 0.25 }

// datasetConfig is the shared synthetic-data configuration (paper aspect
// ratio at reduced resolution).
func (o Options) datasetConfig() dataset.Config {
	cfg := dataset.DefaultConfig()
	cfg.Seed = o.seed()
	return cfg
}

// Table is one regenerated table or figure-as-table.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	// WallClock names the columns measured on this machine's clock: their
	// cells vary from run to run, so the record check masks them.
	WallClock []string
}

// Render prints the table with aligned columns.
func (t Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s: %s ===\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Markdown renders the table as GitHub-flavored Markdown.
func (t Table) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "### %s: %s\n\n", t.ID, t.Title)
	sb.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	sb.WriteString("|" + strings.Repeat(" --- |", len(t.Header)) + "\n")
	for _, row := range t.Rows {
		sb.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		if strings.Contains(n, "\n") {
			continue // ASCII art does not belong in Markdown tables
		}
		fmt.Fprintf(&sb, "\n*%s*\n", n)
	}
	return sb.String()
}

// Experiment is a registered table/figure generator.
type Experiment struct {
	ID    string
	Title string
	Run   func(o Options) Table
}

// Registry returns every experiment in paper order.
func Registry() []Experiment {
	return []Experiment{
		{"table1", "DAC-SDC winning entries and their optimizations (survey)", Table1},
		{"table2", "Backbone accuracy comparison on the detection task", Table2},
		{"fig2a", "Accuracy under parameter vs feature-map quantization (AlexNet-class)", Fig2a},
		{"fig2b", "FPGA BRAM usage vs input resize factor and FM precision", Fig2b},
		{"fig2c", "DSP utilization vs weight/FM bit widths", Fig2c},
		{"fig6", "Bounding-box relative-size distribution of the training data", Fig6},
		{"table4", "SkyNet ablation: models A/B/C with ReLU vs ReLU6", Table4},
		{"table5", "DAC-SDC GPU-track final results", Table5},
		{"table6", "DAC-SDC FPGA-track final results", Table6},
		{"table7", "Quantization schemes for the FPGA implementation", Table7},
		{"fig7", "Qualitative detection results", Fig7},
		{"fig8", "Qualitative tracking results", Fig8},
		{"fig9", "Batch + tiling buffer schemes", Fig9},
		{"fig10", "System-level pipelining", Fig10},
		{"table8", "SiamRPN++-style tracking with different backbones", Table8},
		{"table9", "SiamMask-style tracking with different backbones", Table9},
		{"params", "Full-size parameter counts vs the paper", Params},
		{"widthsweep", "Extension ablation: SkyNet width vs accuracy/throughput Pareto", WidthSweep},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
