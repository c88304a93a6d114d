package exp

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"asyncfd/internal/stats"
)

// Table is the uniform output of every experiment: figures are rendered as
// data tables (one row per x-value, one column per series), matching how the
// harness regenerates the paper family's plots as printable series.
type Table struct {
	ID      string // experiment id, e.g. "E1"
	Title   string
	Note    string
	Columns []string
	Rows    [][]string
}

// AddRow appends one row. The cell count must match Columns (when columns
// are declared); a mismatch is a programming error in the experiment and
// panics rather than silently producing a misaligned table.
func (t *Table) AddRow(cells ...string) {
	if len(t.Columns) > 0 && len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("exp: table %s: AddRow got %d cells, want %d (columns %v)",
			t.ID, len(cells), len(t.Columns), t.Columns))
	}
	t.Rows = append(t.Rows, cells)
}

// Render writes an aligned text rendering. Rows wider than Columns (only
// possible through direct Rows manipulation — AddRow rejects them) render
// their extra cells unpadded instead of panicking.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len([]rune(c))
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len([]rune(cell)) > widths[i] {
				widths[i] = len([]rune(cell))
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "%s\n", t.Note)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(widths) {
				if pad := widths[i] - len([]rune(cell)); pad > 0 && i < len(cells)-1 {
					b.WriteString(strings.Repeat(" ", pad))
				}
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// ms renders a duration in milliseconds with limited precision.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
}

// famCell renders one replicated table cell from its seed-family samples:
// the family mean in the given numeric format (with an optional unit
// suffix), and — when the family carries a confidence interval (R ≥ 2 with
// non-zero spread) — the Student-t 95% half-width appended as " ±W", so the
// cell reads "mean ±ci95". Unreplicated (R = 1) and zero-spread families
// render exactly like fmt.Sprintf(format, v)+unit did before variance-aware
// rendering existed, preserving the byte identity of R=1 tables.
func famCell(format, unit string, samples []float64) string {
	s := stats.Summarize(samples)
	cell := fmt.Sprintf(format, s.Mean) + unit
	// Append the half-width only when it survives the format's resolution:
	// a CI95 of 0.04 under "%.1f" would print the same " ±0.0" as the
	// deliberately suppressed zero-spread case.
	if w := fmt.Sprintf(format, s.CI95); s.CI95 > 0 && w != fmt.Sprintf(format, 0.0) {
		cell += " ±" + w + unit
	}
	return cell
}

// famMS renders a family of millisecond samples: "12.3ms", or
// "12.3ms ±0.8ms" when the family has an interval.
func famMS(samples []float64) string { return famCell("%.1f", "ms", samples) }

// famCount renders a family of integer counts: the bare integer for a
// single replicate (byte-identical to the pre-replication rendering), the
// one-decimal mean ±ci95 otherwise.
func famCount(samples []float64) string {
	if len(samples) == 1 {
		return strconv.Itoa(int(samples[0]))
	}
	return famCell("%.1f", "", samples)
}
