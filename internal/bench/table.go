// Package bench defines the experiment harness that regenerates every
// table and figure of the paper's evaluation section (Experiments is the
// index; README's "Paper → code" maps ids to the paper). Each experiment
// returns a Table that renders as aligned text or CSV; cmd/benchtab drives
// them and bench_test.go wraps them in testing.B benchmarks.
package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"time"
)

// Table is a titled grid of cells.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// NewTable creates a table with the given title and column header.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// Add appends a row; missing cells render empty, extra cells are kept.
func (t *Table) Add(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Header))
	grow := func(row []string) {
		for i, c := range row {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	grow(t.Header)
	for _, r := range t.Rows {
		grow(r)
	}
	if _, err := fmt.Fprintf(w, "== %s ==\n", t.Title); err != nil {
		return err
	}
	writeRow := func(row []string) error {
		var b strings.Builder
		for i, width := range widths {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", width-len(cell)))
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		return err
	}
	if err := writeRow(t.Header); err != nil {
		return err
	}
	if err := writeRow(separator(widths)); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := writeRow(r); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func separator(widths []int) []string {
	out := make([]string, len(widths))
	for i, w := range widths {
		out[i] = strings.Repeat("-", w)
	}
	return out
}

// RenderCSV writes the table as CSV (header first; the title is a comment).
func (t *Table) RenderCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s\n", t.Title); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// FmtDuration renders a duration compactly ("482ms", "3.21s", "1m12s").
func FmtDuration(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%dµs", d.Microseconds())
	case d < time.Second:
		return fmt.Sprintf("%dms", d.Milliseconds())
	case d < time.Minute:
		return fmt.Sprintf("%.2fs", d.Seconds())
	default:
		return d.Round(time.Second).String()
	}
}

// FmtFloat renders a float with 4 significant decimals.
func FmtFloat(v float64) string {
	return fmt.Sprintf("%.4g", v)
}

// FmtCount renders an integer with thousands separators.
func FmtCount(v int64) string {
	s := fmt.Sprintf("%d", v)
	neg := strings.HasPrefix(s, "-")
	if neg {
		s = s[1:]
	}
	var b strings.Builder
	for i, r := range s {
		if i > 0 && (len(s)-i)%3 == 0 {
			b.WriteByte(',')
		}
		b.WriteRune(r)
	}
	if neg {
		return "-" + b.String()
	}
	return b.String()
}
