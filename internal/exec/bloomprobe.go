package exec

import (
	"fmt"

	"prestocs/internal/bloom"
	"prestocs/internal/column"
	"prestocs/internal/types"
)

// BloomProbe drops rows whose key column cannot be in a bloom filter —
// the storage-node evaluation of a pushed-down join semi-filter. Like
// Filter it is a SelSource: the page is handed over untouched with the
// filter folded into the selection vector, so a downstream projection
// or aggregate materializes survivors only once.
type BloomProbe struct {
	input  Operator
	filter *bloom.Filter
	col    int
	meter  *Meter
	// observe, when set, receives per-page (tested, kept) row counts —
	// the hook the storage node uses to export filtered-row telemetry
	// without this package importing it.
	observe func(tested, kept int)
	selBuf  []int
}

// NewBloomProbe validates the key column ordinal. observe may be nil.
func NewBloomProbe(input Operator, col int, filter *bloom.Filter, meter *Meter, observe func(tested, kept int)) (*BloomProbe, error) {
	schema := input.Schema()
	if col < 0 || col >= schema.Len() {
		return nil, fmt.Errorf("exec: bloom probe column %d out of range (schema has %d)", col, schema.Len())
	}
	switch schema.Columns[col].Type {
	case types.Int64, types.Date, types.Float64, types.String, types.Bool:
	default:
		return nil, fmt.Errorf("exec: bloom probe over %s column", schema.Columns[col].Type)
	}
	return &BloomProbe{input: input, filter: filter, col: col, meter: meter, observe: observe}, nil
}

// Schema implements Operator.
func (b *BloomProbe) Schema() *types.Schema { return b.input.Schema() }

// NextSel implements SelSource.
func (b *BloomProbe) NextSel() (*column.Page, []int, error) {
	for {
		page, sel, err := nextSel(b.input)
		if err != nil || page == nil {
			return nil, nil, err
		}
		tested := liveRows(page, sel)
		out, err := b.filter.TestVector(page.Vectors[b.col], sel, b.selBuf[:0])
		if err != nil {
			return nil, nil, err
		}
		b.selBuf = out
		// One hash chain per row plus the membership probes.
		b.meter.charge(tested, float64(b.filter.NumHash()))
		if b.observe != nil {
			b.observe(tested, len(out))
		}
		if len(out) == page.NumRows() {
			return page, nil, nil
		}
		if len(out) > 0 {
			return page, out, nil
		}
	}
}

// Close releases the input when it holds resources (e.g. the connector
// wrapping a result stream after a storage-side bloom rejection).
func (b *BloomProbe) Close() error { return Close(b.input) }

// Next implements Operator, materializing the selection.
func (b *BloomProbe) Next() (*column.Page, error) {
	page, sel, err := b.NextSel()
	if err != nil || page == nil {
		return nil, err
	}
	if sel == nil {
		return page, nil
	}
	return page.FilterSel(sel), nil
}
