package objstore

import (
	"bytes"
	"encoding/csv"
	"fmt"

	"prestocs/internal/expr"
	"prestocs/internal/protowire"
	"prestocs/internal/rpc"
	"prestocs/internal/scan"
	"prestocs/internal/substrait"
)

// selectRequest is an obj.Select request: the object, in the fields of a
// Ref (bucket 1, key 2), the columns to return by name (field 3, repeated;
// none = all) and the filter over the object's full schema (field 4; nil =
// none).
type selectRequest struct {
	Ref
	columns []string
	pred    expr.Expr
}

// decodeSelect unmarshals and validates a Select request under DecodeRef's
// rule: a request that does not parse, or names no bucket or no key, is
// rpc.CodeInvalid.
func decodeSelect(payload []byte) (selectRequest, error) {
	var r selectRequest
	d := protowire.NewDecoder(payload)
	for !d.Done() {
		f, ty, err := d.Next()
		if err == nil {
			switch f {
			case 1:
				r.Bucket, err = d.String()
			case 2:
				r.Key, err = d.String()
			case 3:
				var c string
				if c, err = d.String(); err == nil {
					r.columns = append(r.columns, c)
				}
			case 4:
				var m *protowire.Decoder
				if m, err = d.Message(); err == nil {
					r.pred, err = substrait.DecodeExpr(m)
				}
			default:
				err = d.Skip(ty)
			}
		}
		if err != nil {
			return selectRequest{}, malformed(err)
		}
	}
	return r, r.check(true)
}

// handleSelect implements the S3 Select-like path over one parquetlite
// object of store: WHERE + projection, CSV out, read uncached. The request
// is checked against the stored schema — every column name must exist, and
// the predicate must be a valid filter over the full schema (substrait's
// FilterRel rule) — before any row group is read; a request that fails is
// rpc.CodeInvalid.
func handleSelect(store *Store, payload []byte) ([]byte, error) {
	req, err := decodeSelect(payload)
	if err != nil {
		return nil, err
	}
	data, err := store.Get(req.Bucket, req.Key)
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
	columns := req.columns
	if len(columns) == 0 {
		columns = schema.Names()
	}
	cols := make([]int, len(columns))
	for i, name := range columns {
		if cols[i] = schema.IndexOf(name); cols[i] < 0 {
			return nil, rpc.WithCode(fmt.Errorf("objstore: select references unknown column %q", name), rpc.CodeInvalid)
		}
	}
	read, pred := cols, req.pred
	if pred != nil {
		filter := &substrait.FilterRel{Input: &substrait.ReadRel{Bucket: req.Bucket, Objects: []string{req.Key}, BaseSchema: schema}, Condition: pred}
		if _, err := filter.OutputSchema(); err != nil {
			return nil, rpc.WithCode(fmt.Errorf("objstore: select predicate: %w", err), rpc.CodeInvalid)
		}
		at := make(map[int]int, len(cols))
		for i := len(cols) - 1; i >= 0; i-- {
			at[cols[i]] = i
		}
		read = append([]int(nil), cols...)
		for _, c := range expr.ReferencedColumns(pred) {
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
