package ocs

import (
	"context"
	"fmt"

	"prestocs/internal/ingest"
	"prestocs/internal/types"
)

// AttachIngester enables the write path on this connector: INSERT
// statements routed here via engine.Ingest buffer rows through ing
// into parquetlite objects committed with fresh zone maps.
func (c *Connector) AttachIngester(ing *ingest.Ingester) { c.ingester = ing }

// IngestRows implements engine.IngestConnector. Rows are flushed before
// returning, so an INSERT is durable and visible to new queries the
// moment the statement completes — the statement's time-to-queryable
// includes object seal, storage put and metastore commit.
func (c *Connector) IngestRows(ctx context.Context, schema, table string, rows [][]types.Value) (int64, error) {
	if c.ingester == nil {
		return 0, fmt.Errorf("ocs: catalog %q is read-only (no ingester attached)", c.catalog)
	}
	n, err := c.ingester.Append(ctx, schema, table, rows)
	if err != nil {
		return n, err
	}
	return n, c.ingester.Flush(ctx, schema, table)
}
