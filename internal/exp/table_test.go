package exp

import (
	"strings"
	"testing"
	"time"
)

// renderLines renders tbl and returns its non-empty lines.
func renderLines(t *testing.T, tbl *Table) []string {
	t.Helper()
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := strings.TrimRight(b.String(), "\n")
	return strings.Split(out, "\n")
}

func TestTableRenderAlignment(t *testing.T) {
	tbl := &Table{
		ID:      "T",
		Title:   "alignment",
		Columns: []string{"id", "wide-column", "z"},
	}
	tbl.AddRow("1", "x", "a")
	tbl.AddRow("22222", "yy", "b")
	lines := renderLines(t, tbl)
	if len(lines) != 5 { // header line, columns, separator, 2 rows
		t.Fatalf("lines = %d: %q", len(lines), lines)
	}
	header, sep := lines[1], lines[2]
	// Every column after the first starts at the same offset in each row.
	wantCol2 := strings.Index(header, "wide-column")
	wantCol3 := strings.Index(header, "z")
	for _, l := range []string{sep, lines[3], lines[4]} {
		if len(l) < wantCol2 {
			t.Fatalf("row %q shorter than column offset", l)
		}
	}
	if strings.Index(lines[3], "x") != wantCol2 || strings.Index(lines[4], "yy") != wantCol2 {
		t.Errorf("column 2 misaligned:\n%s", strings.Join(lines, "\n"))
	}
	if strings.Index(lines[3], "a") != wantCol3 || strings.Index(lines[4], "b") != wantCol3 {
		t.Errorf("column 3 misaligned:\n%s", strings.Join(lines, "\n"))
	}
	// The last cell is not padded: no trailing spaces on any line.
	for _, l := range lines {
		if strings.TrimRight(l, " ") != l {
			t.Errorf("trailing padding on %q", l)
		}
	}
}

// TestTableRenderRuneWidths checks alignment for multi-byte cells: widths
// must count runes, not bytes, or Greek/CJK cells shift every later column.
func TestTableRenderRuneWidths(t *testing.T) {
	tbl := &Table{ID: "T", Title: "runes", Columns: []string{"name", "val"}}
	tbl.AddRow("λM", "1")
	tbl.AddRow("plain", "2")
	lines := renderLines(t, tbl)
	r1 := []rune(lines[2+1]) // first data row
	r2 := []rune(lines[2+2])
	v1 := -1
	for i, r := range r1 {
		if r == '1' {
			v1 = i
		}
	}
	v2 := -1
	for i, r := range r2 {
		if r == '2' {
			v2 = i
		}
	}
	if v1 != v2 {
		t.Errorf("value column misaligned in rune offsets (%d vs %d):\n%s", v1, v2, strings.Join(lines, "\n"))
	}
}

func TestTableRenderNoNote(t *testing.T) {
	tbl := &Table{ID: "T", Title: "no note", Columns: []string{"a"}}
	tbl.AddRow("1")
	lines := renderLines(t, tbl)
	if len(lines) != 4 {
		t.Fatalf("lines = %d, want header+columns+separator+row: %q", len(lines), lines)
	}
	if !strings.HasPrefix(lines[0], "== T: no note ==") {
		t.Errorf("header = %q", lines[0])
	}
}

func TestTableRenderShortRow(t *testing.T) {
	// Rows narrower than Columns must render without panicking. AddRow
	// rejects the mismatch, so the row is injected directly.
	tbl := &Table{ID: "T", Title: "short", Columns: []string{"a", "b", "c"}}
	tbl.Rows = append(tbl.Rows, []string{"only"})
	lines := renderLines(t, tbl)
	if !strings.Contains(lines[len(lines)-1], "only") {
		t.Errorf("short row lost: %q", lines)
	}
}

func TestTableRenderWideRow(t *testing.T) {
	// Regression: a row with MORE cells than Columns used to index
	// widths[i] out of range and panic mid-render. It must render, with the
	// overflow cells unpadded.
	tbl := &Table{ID: "T", Title: "wide", Columns: []string{"a", "b"}}
	tbl.AddRow("1", "2")
	tbl.Rows = append(tbl.Rows, []string{"3", "4", "overflow", "more"})
	lines := renderLines(t, tbl)
	last := lines[len(lines)-1]
	for _, want := range []string{"3", "4", "overflow", "more"} {
		if !strings.Contains(last, want) {
			t.Errorf("wide row lost cell %q: %q", want, last)
		}
	}
}

func TestAddRowRejectsMismatch(t *testing.T) {
	tbl := &Table{ID: "T", Title: "strict", Columns: []string{"a", "b"}}
	for _, cells := range [][]string{{"1"}, {"1", "2", "3"}} {
		cells := cells
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddRow(%d cells) with 2 columns did not panic", len(cells))
				}
			}()
			tbl.AddRow(cells...)
		}()
	}
	// Matching rows, and rows on a column-less table, stay accepted.
	tbl.AddRow("1", "2")
	free := &Table{ID: "F", Title: "no columns"}
	free.AddRow("anything", "goes", "here")
	if len(tbl.Rows) != 1 || len(free.Rows) != 1 {
		t.Errorf("valid rows rejected: %d/%d", len(tbl.Rows), len(free.Rows))
	}
}

func TestSeparatorMatchesWidths(t *testing.T) {
	tbl := &Table{ID: "T", Title: "sep", Columns: []string{"ab", "c"}}
	tbl.AddRow("x", "longest-cell")
	lines := renderLines(t, tbl)
	sep := lines[2]
	want := "--  ------------"
	if sep != want {
		t.Errorf("separator = %q, want %q", sep, want)
	}
}

func TestMsF3Formatting(t *testing.T) {
	if got := ms(1500 * time.Microsecond); got != "1.5ms" {
		t.Errorf("ms = %q", got)
	}
	if got := ms(0); got != "0.0ms" {
		t.Errorf("ms(0) = %q", got)
	}
}

func TestFamCellFormatting(t *testing.T) {
	// Unreplicated family: byte-identical to the plain format — no ± suffix.
	if got := famMS([]float64{1.5}); got != "1.5ms" {
		t.Errorf("famMS single = %q, want 1.5ms", got)
	}
	if got := famCell("%.4f", "", []float64{0.0123}); got != "0.0123" {
		t.Errorf("famCell single = %q", got)
	}
	// Zero-spread family: still no suffix (CI95 = 0).
	if got := famMS([]float64{2, 2, 2}); got != "2.0ms" {
		t.Errorf("famMS zero-spread = %q, want 2.0ms", got)
	}
	// Replicated family with spread: mean ±ci95 in the same format+unit.
	got := famMS([]float64{10, 12, 14})
	if !strings.HasPrefix(got, "12.0ms ±") || !strings.HasSuffix(got, "ms") {
		t.Errorf("famMS replicated = %q, want \"12.0ms ±<w>ms\"", got)
	}
	// A half-width below the format's resolution must not print a
	// misleading " ±0.0ms" (indistinguishable from zero spread).
	if got := famMS([]float64{12.0, 12.001, 12.002}); got != "12.0ms" {
		t.Errorf("famMS sub-resolution spread = %q, want bare mean", got)
	}
	// famCount: bare integer for R=1, one-decimal mean ±ci95 otherwise.
	if got := famCount([]float64{7}); got != "7" {
		t.Errorf("famCount single = %q, want 7", got)
	}
	got = famCount([]float64{1, 2, 3})
	if !strings.HasPrefix(got, "2.0 ±") {
		t.Errorf("famCount replicated = %q, want \"2.0 ±<w>\"", got)
	}
}
