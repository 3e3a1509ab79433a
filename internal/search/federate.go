package search

import (
	"context"
	"fmt"

	"repro/internal/core"
)

// IndexFederation crawls every registered source of a mediator and indexes
// every row of every table, keyed by the table's first column. It returns
// the number of entries added. This is the "search across ... structured
// data in all the applications in an enterprise" bootstrap: one call, the
// whole federation becomes searchable.
//
// Sources whose tables cannot be scanned (capability or availability
// errors) are skipped and reported in the error slice; indexing continues.
func IndexFederation(ctx context.Context, ix *Index, engine *core.Engine) (int, []error) {
	added := 0
	var errs []error
	for _, sourceName := range engine.Sources() {
		src, ok := engine.Source(sourceName)
		if !ok {
			continue
		}
		cat := src.Catalog()
		for _, tableName := range cat.TableNames() {
			res, err := engine.QueryCtx(ctx, fmt.Sprintf("SELECT * FROM %s.%s", sourceName, tableName))
			if err != nil {
				errs = append(errs, fmt.Errorf("search: indexing %s.%s: %w", sourceName, tableName, err))
				continue
			}
			for _, row := range res.Rows {
				key := "?"
				if len(row) > 0 {
					key = row[0].Display()
				}
				ix.IndexRow(sourceName, tableName, key, row, res.Columns)
				added++
			}
		}
	}
	return added, errs
}
