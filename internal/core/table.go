// Package core is the study itself: the experiment registry that
// regenerates every table and figure of the paper on the modelled
// machines, plus the programmatic checks behind the qualitative analysis
// (Findings 1-8, Table V).
//
// Each experiment function runs the workflows it needs and returns
// Tables whose rows correspond to the series the paper plots. A Table is
// a view of typed values: every cell comes from one constructor in this
// file (seconds, MB, ratio, percent, count, label, or the failed-run
// cell shared by every experiment), which fixes both the rendered text
// kept in Rows and the unrounded number behind it, read through value.
// Notes and tests read the numbers; Render and Chart draw the text.
// Experiments accept an Options value so tests and benchmarks can run
// trimmed sweeps while cmd/imcbench runs the full ones.
package core

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"text/tabwriter"

	"github.com/imcstudy/imcstudy/internal/sim"
	"github.com/imcstudy/imcstudy/internal/workflow"
)

// Table is one renderable result table (a figure's data series or a
// table's rows).
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string

	// nums holds, row for row beside Rows, the unrounded number each
	// cell shows (ok false for text-only and failed-run cells).
	nums [][]number
}

// number is the typed value of one cell.
type number struct {
	v  float64
	ok bool
}

// Cell is one table cell: its rendered text and, when it shows a
// number, that number unrounded. The constructors below are the only
// way to build one.
type Cell struct {
	text string
	num  number
}

// value returns the number a cell shows; ok is false for text-only and
// failed-run cells.
func (c Cell) value() (float64, bool) { return c.num.v, c.num.ok }

// AddRow appends a row.
func (t *Table) AddRow(cells ...Cell) {
	row := make([]string, len(cells))
	nums := make([]number, len(cells))
	for i, c := range cells {
		row[i], nums[i] = c.text, c.num
	}
	t.Rows = append(t.Rows, row)
	t.nums = append(t.nums, nums)
}

// value returns the unrounded number behind cell (row, col); ok is
// false when the cell shows no number.
func (t *Table) value(row, col int) (float64, bool) {
	if row < 0 || row >= len(t.nums) || col < 0 || col >= len(t.nums[row]) {
		return 0, false
	}
	n := t.nums[row][col]
	return n.v, n.ok
}

// AddNote appends a footnote.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if len(t.Header) > 0 {
		fmt.Fprintln(tw, strings.Join(t.Header, "\t"))
		sep := make([]string, len(t.Header))
		for i, h := range t.Header {
			sep[i] = strings.Repeat("-", len(h))
		}
		fmt.Fprintln(tw, strings.Join(sep, "\t"))
	}
	for _, row := range t.Rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "  note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// RenderAll renders a list of tables.
func RenderAll(w io.Writer, tables []*Table) error {
	for _, t := range tables {
		if err := t.Render(w); err != nil {
			return err
		}
	}
	return nil
}

// decimal is a number shown with prec decimals.
func decimal(v float64, prec int) Cell {
	return Cell{text: strconv.FormatFloat(v, 'f', prec, 64), num: number{v, true}}
}

// seconds is a virtual duration.
func seconds(t sim.Time) Cell { return decimal(t, 2) }

// mb is a byte count shown in whole MB; its value is MB unrounded.
func mb(b int64) Cell { return decimal(float64(b)/(1<<20), 0) }

// ratio is a speed-up or penalty factor, "1.49x".
func ratio(v float64, prec int) Cell {
	c := decimal(v, prec)
	c.text += "x"
	return c
}

// percent is a percentage, "-0.4%".
func percent(v float64) Cell {
	c := decimal(v, 1)
	c.text += "%"
	return c
}

// increase is a percentage shown with its sign, "+2.3%".
func increase(v float64) Cell {
	c := percent(v)
	if c.text[0] != '-' {
		c.text = "+" + c.text
	}
	return c
}

// count is an integer.
func count(n int) Cell { return Cell{text: strconv.Itoa(n), num: number{float64(n), true}} }

// label is text with no number behind it.
func label(s string) Cell { return Cell{text: s} }

// labels is one label per string.
func labels(ss ...string) []Cell {
	out := make([]Cell, len(ss))
	for i, s := range ss {
		out[i] = label(s)
	}
	return out
}

// dash marks a cell with nothing to show, such as a derived value of a
// run that failed.
var dash = label("-")

// errRunFailed stands in for a modelled failure that carries no error.
var errRunFailed = errors.New("core: run failed")

// runFailure reports why one workflow.Run did not complete: its setup
// error, or the modelled failure that stopped it. It returns nil for a
// run that completed.
func runFailure(res workflow.Result, err error) error {
	switch {
	case err != nil:
		return err
	case res.Failed && res.FailErr != nil:
		return res.FailErr
	case res.Failed:
		return errRunFailed
	}
	return nil
}

// failed is the cell of a run that did not complete: "FAIL(class)" with
// the failure class of its setup error or modelled failure alike.
func failed(err error) Cell { return label("FAIL(" + workflow.FailureClass(err) + ")") }

// endToEnd is a run's end-to-end time, or the failed-run cell.
func endToEnd(res workflow.Result, err error) Cell {
	if f := runFailure(res, err); f != nil {
		return failed(f)
	}
	return seconds(res.EndToEnd)
}

// outcome is whether a run completed: "ran (17.12s)", valued at its
// end-to-end time, or the failed-run cell.
func outcome(res workflow.Result, err error) Cell {
	c := endToEnd(res, err)
	if _, ok := c.value(); ok {
		c.text = "ran (" + c.text + "s)"
	}
	return c
}

// both returns the numbers two cells show; ok is false when either
// shows none.
func both(a, b Cell) (x, y float64, ok bool) {
	x, okA := a.value()
	y, okB := b.value()
	return x, y, okA && okB
}

// derive is f of the numbers two cells show, or dash when either shows
// none (a derived value of a run that failed).
func derive(a, b Cell, f func(x, y float64) Cell) Cell {
	x, y, ok := both(a, b)
	if !ok {
		return dash
	}
	return f(x, y)
}
