package harness

import (
	"encoding/csv"
	"encoding/json"
	"io"
)

// jsonTable is the serialized form of a Table.
type jsonTable struct {
	Title   string    `json:"title"`
	Columns []string  `json:"columns"`
	Rows    []jsonRow `json:"rows"`
	Notes   []string  `json:"notes,omitempty"`
}

type jsonRow struct {
	Label string   `json:"label"`
	Cells []string `json:"cells"`
}

// WriteJSON serializes the table as indented JSON.
func (t *Table) WriteJSON(w io.Writer) error {
	jt := jsonTable{Title: t.Title, Columns: t.Columns, Notes: t.Notes}
	for _, r := range t.Rows {
		jt.Rows = append(jt.Rows, jsonRow{Label: r.Label, Cells: r.Cells})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jt)
}

// WriteCSV serializes the table as CSV: a header row ("benchmark" plus the
// columns) followed by one record per row. Notes are omitted.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{"benchmark"}, t.Columns...)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range t.Rows {
		record := make([]string, len(header))
		record[0] = r.Label
		for i := range t.Columns {
			if i < len(r.Cells) {
				record[i+1] = r.Cells[i]
			}
		}
		if err := cw.Write(record); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Formats are the output formats Table.Write accepts, the default first.
var Formats = []string{"text", "json", "csv"}

// Write renders the table in one of Formats ("" is "text").
func (t *Table) Write(w io.Writer, format string) error {
	switch format {
	case "", "text":
		t.Render(w)
		return nil
	case "json":
		return t.WriteJSON(w)
	case "csv":
		return t.WriteCSV(w)
	default:
		return errUnknownFormat(format)
	}
}

type errUnknownFormat string

func (e errUnknownFormat) Error() string { return "harness: unknown format " + string(e) }
