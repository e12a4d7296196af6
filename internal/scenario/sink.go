package scenario

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Sink receives the finished tables of an engine run, one call per table,
// in scenario registration order regardless of how many scenarios executed
// concurrently. elapsed is the scenario's wall time: the one out-of-band
// value a sink sees, which must never reach result bytes.
type Sink interface {
	Table(t *Table, elapsed time.Duration) error
}

// TextSink renders tables as the aligned monospace text of Table.String —
// the historical cmd/experiments output: a blank line between tables and,
// when Timings is set, a "(ID in 12ms)" line after each.
type TextSink struct {
	W       io.Writer
	Timings bool
	started bool
}

// NewTextSink returns a text sink writing to w, without timing lines.
func NewTextSink(w io.Writer) *TextSink { return &TextSink{W: w} }

// Table implements Sink.
func (s *TextSink) Table(t *Table, elapsed time.Duration) error {
	if s.started {
		if _, err := fmt.Fprintln(s.W); err != nil {
			return err
		}
	}
	s.started = true
	if _, err := io.WriteString(s.W, t.String()); err != nil {
		return err
	}
	if !s.Timings {
		return nil
	}
	_, err := fmt.Fprintf(s.W, "(%s in %v)\n", t.ID, elapsed.Round(time.Millisecond))
	return err
}

// CSVSink writes tables as CSV records. Each table contributes a header
// record ["scenario", col...] followed by one record per row
// [id, cell...]; notes become [id, "note", text] records. Scenario timings
// are not written.
type CSVSink struct{ w *csv.Writer }

// NewCSVSink returns a CSV sink writing to w.
func NewCSVSink(w io.Writer) *CSVSink { return &CSVSink{w: csv.NewWriter(w)} }

// Table implements Sink.
func (s *CSVSink) Table(t *Table, _ time.Duration) error {
	if err := s.w.Write(append([]string{"scenario"}, t.Columns...)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := s.w.Write(append([]string{t.ID}, row...)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if err := s.w.Write([]string{t.ID, "note", n}); err != nil {
			return err
		}
	}
	s.w.Flush()
	return s.w.Error()
}

// JSONLSink writes one JSON object per line: a "table" event per table
// ({"event","id","title","columns"}), a "row" event per row
// ({"event","id","cells"}), a "note" event per note and, when Timings is
// set, a "done" event with the elapsed milliseconds. The format is
// append-only and schema-free, so downstream tooling can consume a suite
// run table by table.
type JSONLSink struct {
	Timings bool
	enc     *json.Encoder
}

// NewJSONLSink returns a JSONL sink writing to w, with "done" events.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{Timings: true, enc: json.NewEncoder(w)}
}

type jsonlEvent struct {
	Event   string   `json:"event"`
	ID      string   `json:"id"`
	Title   string   `json:"title,omitempty"`
	Columns []string `json:"columns,omitempty"`
	Cells   []string `json:"cells,omitempty"`
	Text    string   `json:"text,omitempty"`
	Millis  float64  `json:"ms,omitempty"`
}

// Table implements Sink.
func (s *JSONLSink) Table(t *Table, elapsed time.Duration) error {
	if err := s.enc.Encode(jsonlEvent{Event: "table", ID: t.ID, Title: t.Title, Columns: t.Columns}); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := s.enc.Encode(jsonlEvent{Event: "row", ID: t.ID, Cells: row}); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if err := s.enc.Encode(jsonlEvent{Event: "note", ID: t.ID, Text: n}); err != nil {
			return err
		}
	}
	if !s.Timings {
		return nil
	}
	return s.enc.Encode(jsonlEvent{Event: "done", ID: t.ID,
		Millis: float64(elapsed.Microseconds()) / 1000})
}
