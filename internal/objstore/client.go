package objstore

import (
	"context"
	"encoding/csv"
	"fmt"
	"strings"

	"prestocs/internal/column"
	"prestocs/internal/expr"
	"prestocs/internal/protowire"
	"prestocs/internal/retry"
	"prestocs/internal/rpc"
	"prestocs/internal/substrait"
	"prestocs/internal/types"
)

// Client is the one client of the object protocol. It speaks to anything
// that mounts the object methods — a Server, an OCS storage node or the OCS
// frontend (ocsserver.Client embeds it). Put, Get, List and Delete are
// idempotent end to end, so every call runs under the retry policy:
// transient transport failures (peer unreachable, connection killed
// mid-call) are retried, everything else surfaces at once.
type Client struct {
	rpc   *rpc.Client
	retry retry.Policy
}

// NewClient dials an object server with the default retry policy.
func NewClient(addr string) *Client { return NewClientOver(rpc.Dial(addr), retry.Default()) }

// NewClientOver builds a client on an existing connection pool and retry
// policy, for callers that share both with other methods of the same peer.
func NewClientOver(c *rpc.Client, p retry.Policy) *Client { return &Client{rpc: c, retry: p} }

// Close releases connections.
func (c *Client) Close() error { return c.rpc.Close() }

// Meter exposes the transport meter (data-movement accounting).
func (c *Client) Meter() *rpc.Meter { return &c.rpc.Meter }

// Put uploads an object, overwriting any previous image.
func (c *Client) Put(ctx context.Context, bucket, key string, data []byte) error {
	_, err := c.retry.Call(ctx, c.rpc, MethodPut, EncodeRef(Ref{Bucket: bucket, Key: key, Data: data}))
	return err
}

// Get downloads a whole object, returning the data and storage-side work
// stats.
func (c *Client) Get(ctx context.Context, bucket, key string) ([]byte, WorkStats, error) {
	resp, err := c.retry.Call(ctx, c.rpc, MethodGet, EncodeRef(Ref{Bucket: bucket, Key: key}))
	if err != nil {
		return nil, WorkStats{}, err
	}
	return DecodeDataStats(resp)
}

// Delete removes an object; deleting a missing key succeeds.
func (c *Client) Delete(ctx context.Context, bucket, key string) error {
	_, err := c.retry.Call(ctx, c.rpc, MethodDelete, EncodeRef(Ref{Bucket: bucket, Key: key}))
	return err
}

// List returns the sorted keys of a bucket that start with prefix.
func (c *Client) List(ctx context.Context, bucket, prefix string) ([]string, error) {
	resp, err := c.retry.Call(ctx, c.rpc, MethodList, EncodeRef(Ref{Bucket: bucket, Key: prefix}))
	if err != nil {
		return nil, err
	}
	return DecodeKeys(resp)
}

// Select runs the S3 Select-like path: project columns (by name; empty =
// all) and filter by pred (ordinals over the object's full schema; nil =
// no filter). It returns the raw CSV payload plus storage work stats.
func (c *Client) Select(ctx context.Context, bucket, key string, columns []string, pred expr.Expr) ([]byte, WorkStats, error) {
	e := protowire.NewEncoder()
	e.String(1, bucket)
	e.String(2, key)
	for _, col := range columns {
		e.String(3, col)
	}
	if pred != nil {
		if err := substrait.EncodeExpr(e, 4, pred); err != nil {
			return nil, WorkStats{}, err
		}
	}
	resp, err := c.retry.Call(ctx, c.rpc, MethodSelect, e.Encoded())
	if err != nil {
		return nil, WorkStats{}, err
	}
	return DecodeDataStats(resp)
}

// ParseSelectCSV converts a Select response body into a columnar page.
// Column types are resolved from the provided schema by header name. The
// returned meter units reflect the row-oriented parse cost that the paper
// attributes to CSV results (one unit per cell).
func ParseSelectCSV(data []byte, schema *types.Schema) (*column.Page, float64, error) {
	r := csv.NewReader(strings.NewReader(string(data)))
	records, err := r.ReadAll()
	if err != nil {
		return nil, 0, fmt.Errorf("objstore: parsing select CSV: %w", err)
	}
	if len(records) == 0 {
		return nil, 0, fmt.Errorf("objstore: select CSV missing header")
	}
	header := records[0]
	cols := make([]types.Column, len(header))
	for i, name := range header {
		idx := schema.IndexOf(name)
		if idx < 0 {
			return nil, 0, fmt.Errorf("objstore: select CSV has unknown column %q", name)
		}
		cols[i] = schema.Columns[idx]
	}
	out := column.NewPage(types.NewSchema(cols...))
	var units float64
	for _, rec := range records[1:] {
		if len(rec) != len(cols) {
			return nil, 0, fmt.Errorf("objstore: select CSV row has %d fields, want %d", len(rec), len(cols))
		}
		row := make([]types.Value, len(cols))
		for i, field := range rec {
			v, err := types.ParseValue(field, cols[i].Type)
			if err != nil {
				return nil, 0, err
			}
			row[i] = v
		}
		out.AppendRow(row...)
		units += float64(len(cols))
	}
	return out, units, nil
}
