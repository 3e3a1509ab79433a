package federation

import (
	"encoding/csv"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/datum"
	"repro/internal/netsim"
	"repro/internal/schema"
	"repro/internal/storage"
)

// CSVSource wraps delimited-file data (§4 lists "delimited files" among
// Liquid Data's sources). It can apply filters and projections while
// scanning but cannot join, aggregate or sort — those run at the mediator.
type CSVSource struct {
	tableBacked
}

// NewCSVSource creates an empty delimited-file source.
func NewCSVSource(name string, link *netsim.Link) *CSVSource {
	return &CSVSource{newTableBacked(name, FilterOnly(), link)}
}

// LoadCSV parses delimited text into a new table. The first record is the
// header; column kinds are inferred per column from the data (INT, then
// FLOAT, then STRING). Empty fields become NULL.
func (s *CSVSource) LoadCSV(table, text string) (*storage.Table, error) {
	r := csv.NewReader(strings.NewReader(text))
	r.TrimLeadingSpace = true
	records, err := r.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("federation: csv %s: %w", table, err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("federation: csv %s: missing header", table)
	}
	header := records[0]
	data := records[1:]
	kinds := make([]datum.Kind, len(header))
	for c := range header {
		kinds[c] = inferCSVKind(data, c)
	}
	cols := make([]schema.Column, len(header))
	for c, h := range header {
		cols[c] = schema.Column{Name: strings.TrimSpace(h), Kind: kinds[c], Nullable: true}
	}
	sch, err := schema.NewTable(table, cols)
	if err != nil {
		return nil, err
	}
	t := storage.NewTable(sch)
	for i, rec := range data {
		row := make(datum.Row, len(header))
		for c := range header {
			v, err := parseCSVField(rec, c, kinds[c])
			if err != nil {
				return nil, fmt.Errorf("federation: csv %s row %d col %d: %w", table, i+1, c, err)
			}
			row[c] = v
		}
		if err := t.Insert(row); err != nil {
			return nil, err
		}
	}
	if err := s.addTable(sch, t); err != nil {
		return nil, err
	}
	return t, nil
}

func inferCSVKind(data [][]string, col int) datum.Kind {
	kind := datum.KindInt
	seen := false
	for _, rec := range data {
		if col >= len(rec) {
			continue
		}
		f := strings.TrimSpace(rec[col])
		if f == "" {
			continue
		}
		seen = true
		if _, err := strconv.ParseInt(f, 10, 64); err == nil {
			continue
		}
		if _, err := strconv.ParseFloat(f, 64); err == nil {
			if kind == datum.KindInt {
				kind = datum.KindFloat
			}
			continue
		}
		return datum.KindString
	}
	if !seen {
		return datum.KindString
	}
	return kind
}

func parseCSVField(rec []string, col int, kind datum.Kind) (datum.Datum, error) {
	if col >= len(rec) {
		return datum.Null, nil
	}
	f := strings.TrimSpace(rec[col])
	if f == "" {
		return datum.Null, nil
	}
	switch kind {
	case datum.KindInt:
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return datum.Null, err
		}
		return datum.NewInt(v), nil
	case datum.KindFloat:
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return datum.Null, err
		}
		return datum.NewFloat(v), nil
	default:
		return datum.NewString(f), nil
	}
}

var _ Source = (*CSVSource)(nil)
