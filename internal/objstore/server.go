package objstore

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"

	"prestocs/internal/expr"
	"prestocs/internal/protowire"
	"prestocs/internal/rpc"
	"prestocs/internal/scan"
	"prestocs/internal/substrait"
	"prestocs/internal/telemetry"
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
	// The column names resolve against the stored schema; the read is then
	// the projection plus the predicate's other columns, with the
	// predicate remapped from full-schema ordinals to their positions in
	// the read.
	stored, err := scan.Open(nil, "", data, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	schema := stored.Schema()
	if len(columns) == 0 {
		columns = schema.Names()
	}
	cols := make([]int, len(columns))
	for i, name := range columns {
		if cols[i] = schema.IndexOf(name); cols[i] < 0 {
			return nil, fmt.Errorf("objstore: select references unknown column %q", name)
		}
	}
	read := cols
	if pred != nil {
		at := make(map[int]int, len(cols))
		for i := len(cols) - 1; i >= 0; i-- {
			at[cols[i]] = i
		}
		read = append([]int(nil), cols...)
		for _, c := range expr.ReferencedColumns(pred) {
			if c < 0 || c >= schema.Len() {
				return nil, fmt.Errorf("objstore: predicate ordinal %d out of range", c)
			}
			if _, ok := at[c]; !ok {
				at[c] = len(read)
				read = append(read, c)
			}
		}
		if pred, err = expr.Remap(pred, at); err != nil {
			return nil, err
		}
	}
	obj, err := scan.Open(nil, "", data, nil, read, pred)
	if err != nil {
		return nil, err
	}

	var st WorkStats
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.Write(columns); err != nil {
		return nil, err
	}
	record := make([]string, len(cols))
	for g := 0; g < obj.Len(); g++ {
		page, err := obj.Read(g)
		if err != nil {
			return nil, err
		}
		n := page.NumRows()
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
		st.RowsProcessed += int64(n)
		for _, row := range sel {
			for i := range cols {
				record[i] = page.Vectors[i].Value(row).String()
			}
			if err := w.Write(record); err != nil {
				return nil, err
			}
			// CSV formatting cost: ~1 unit per cell.
			st.CPUUnits += float64(len(cols))
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return nil, err
	}
	io := obj.IO()
	st.BytesRead, st.BytesDecompressed = io.BytesRead, io.BytesDecompressed
	st.CPUUnits += io.CPUUnits

	return EncodeDataStats(buf.Bytes(), st), nil
}
