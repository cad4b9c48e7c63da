package objstore

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"

	"prestocs/internal/column"
	"prestocs/internal/compress"
	"prestocs/internal/expr"
	"prestocs/internal/parquetlite"
	"prestocs/internal/protowire"
	"prestocs/internal/rpc"
	"prestocs/internal/substrait"
	"prestocs/internal/telemetry"
	"prestocs/internal/types"
)

// Server exposes a Store over RPC.
type Server struct {
	store *Store
	rpc   *rpc.Server

	// Metrics and Tracer feed the transport's telemetry; optional, set
	// before Listen.
	Metrics *telemetry.Registry
	Tracer  *telemetry.Tracer
}

// NewServer wraps a store.
func NewServer(store *Store) *Server {
	s := &Server{store: store, rpc: rpc.NewServer()}
	Mount(s.rpc, store, nil)
	s.rpc.Register(MethodSelect, s.handleSelect)
	return s
}

// Listen binds and serves; returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	s.rpc.Metrics = s.Metrics
	s.rpc.Tracer = s.Tracer
	return s.rpc.Listen(addr)
}

// Close shuts the server down.
func (s *Server) Close() error { return s.rpc.Close() }

// Meter exposes the transport meter.
func (s *Server) Meter() *rpc.Meter { return &s.rpc.Meter }

// handleSelect implements the S3 Select-like path: WHERE + projection over
// one parquetlite object, CSV out. Predicate column ordinals reference the
// object's full schema.
func (s *Server) handleSelect(_ context.Context, payload []byte) ([]byte, error) {
	d := protowire.NewDecoder(payload)
	var bucket, key string
	var columns []string
	var pred expr.Expr
	for !d.Done() {
		f, ty, err := d.Next()
		if err != nil {
			return nil, err
		}
		switch f {
		case 1:
			bucket, err = d.String()
		case 2:
			key, err = d.String()
		case 3:
			var c string
			c, err = d.String()
			columns = append(columns, c)
		case 4:
			var m *protowire.Decoder
			m, err = d.Message()
			if err == nil {
				pred, err = substrait.DecodeExpr(m)
			}
		default:
			err = d.Skip(ty)
		}
		if err != nil {
			return nil, err
		}
	}
	data, err := s.store.Get(bucket, key)
	if err != nil {
		return nil, err
	}
	r, err := parquetlite.NewReader(data)
	if err != nil {
		return nil, err
	}
	schema := r.Schema()
	colIdx := make([]int, len(columns))
	for i, name := range columns {
		idx := schema.IndexOf(name)
		if idx < 0 {
			return nil, fmt.Errorf("objstore: select references unknown column %q", name)
		}
		colIdx[i] = idx
	}
	if len(colIdx) == 0 {
		for i := range schema.Columns {
			colIdx = append(colIdx, i)
		}
	}
	// Columns needed: projection plus predicate references (full-schema
	// ordinals).
	needed := map[int]bool{}
	for _, c := range colIdx {
		needed[c] = true
	}
	if pred != nil {
		for _, c := range expr.ReferencedColumns(pred) {
			if c < 0 || c >= schema.Len() {
				return nil, fmt.Errorf("objstore: predicate ordinal %d out of range", c)
			}
			needed[c] = true
		}
	}

	var st WorkStats
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	header := make([]string, len(colIdx))
	for i, c := range colIdx {
		header[i] = schema.Columns[c].Name
	}
	if err := w.Write(header); err != nil {
		return nil, err
	}

	keep, _, _ := r.PruneRowGroupsRanges(expr.AnalyzeRanges(pred), nil)
	for _, rg := range keep {
		// Materialize the needed columns in full-schema positions so
		// predicate ordinals resolve; untouched columns stay nil and are
		// never read from media.
		page, err := readSparse(r, rg, schema, needed)
		if err != nil {
			return nil, err
		}
		n := r.Meta().RowGroups[rg].NumRows
		// Vectorized predicate evaluation into a selection vector of the
		// surviving rows (kernels in internal/expr); only those rows are
		// formatted.
		var sel []int
		if pred == nil {
			sel = make([]int, n)
			for i := range sel {
				sel[i] = i
			}
		} else {
			sel, err = expr.EvalSelection(pred, page)
			if err != nil {
				return nil, err
			}
			st.CPUUnits += pred.Cost() * float64(n)
		}
		st.RowsProcessed += n
		record := make([]string, len(colIdx))
		for _, row := range sel {
			for i, c := range colIdx {
				record[i] = page.Vectors[c].Value(row).String()
			}
			if err := w.Write(record); err != nil {
				return nil, err
			}
			// CSV formatting cost: ~1 unit per cell.
			st.CPUUnits += float64(len(colIdx))
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return nil, err
	}
	st.BytesRead = r.BytesRead
	st.BytesDecompressed = r.BytesDecompressed
	st.CPUUnits += float64(r.BytesDecompressed) * compress.DecompressCostPerByte(r.Meta().Codec)

	return EncodeDataStats(buf.Bytes(), st), nil
}

// readSparse materializes only the needed columns of a row group, placing
// them at their full-schema ordinals. Unneeded columns are filled with
// all-NULL vectors (never read from media) so page invariants hold for
// predicate evaluation, which only touches referenced ordinals.
func readSparse(r *parquetlite.Reader, rg int, schema *types.Schema, needed map[int]bool) (*column.Page, error) {
	n := int(r.Meta().RowGroups[rg].NumRows)
	page := &column.Page{Schema: schema, Vectors: make([]*column.Vector, schema.Len())}
	for c, col := range schema.Columns {
		if !needed[c] {
			vec := column.NewVector(col.Type)
			for i := 0; i < n; i++ {
				vec.Append(types.NullValue(col.Type))
			}
			page.Vectors[c] = vec
			continue
		}
		vec, err := r.ReadColumn(rg, c)
		if err != nil {
			return nil, err
		}
		page.Vectors[c] = vec
	}
	return page, nil
}
