// Package parquetlite implements a Parquet-like columnar object format:
// row groups of independently compressed column chunks with per-chunk
// min/max/null-count statistics, a binary footer, selective column reads
// and row-group pruning. Datasets in the evaluation are stored as
// parquetlite objects in the object store, and both the compute-side scan
// path and the OCS embedded engine read them.
//
// File layout (all offsets absolute):
//
//	magic "PQL1"
//	row group 0: chunk(col 0) | chunk(col 1) | ...
//	row group 1: ...
//	footer (protowire message)
//	u32 footer length | magic "PQL1"
//
// Each column chunk is an encoded buffer (plain / dictionary / RLE)
// compressed with the file's codec. Statistics are collected per chunk at
// write time; they feed the Hive-metastore table statistics and row-group
// pruning.
package parquetlite

import (
	"errors"
	"fmt"

	"prestocs/internal/compress"
	"prestocs/internal/expr"
	"prestocs/internal/protowire"
	"prestocs/internal/types"
)

// Magic identifies a parquetlite file (head and tail).
var Magic = []byte("PQL1")

// ErrCorrupt reports a malformed file.
var ErrCorrupt = errors.New("parquetlite: corrupt file")

// Encoding identifies how a column chunk's values are encoded before
// compression.
type Encoding uint8

const (
	// Plain stores values back to back (validity bitmap + typed buffer).
	Plain Encoding = iota
	// Dict stores a value dictionary plus per-row indices (strings only).
	Dict
	// RLE stores (run length, value) pairs (int64/date only).
	RLE
)

func (e Encoding) String() string {
	switch e {
	case Plain:
		return "plain"
	case Dict:
		return "dict"
	case RLE:
		return "rle"
	default:
		return fmt.Sprintf("encoding(%d)", uint8(e))
	}
}

// ChunkMeta describes one column chunk inside a row group.
type ChunkMeta struct {
	Offset           int64
	CompressedSize   int64
	UncompressedSize int64
	Encoding         Encoding
	Stats            expr.ZoneMap
}

// RowGroupMeta describes one row group.
type RowGroupMeta struct {
	NumRows int64
	Chunks  []ChunkMeta // one per schema column
}

// FileMeta is the decoded footer.
type FileMeta struct {
	Schema    *types.Schema
	Codec     compress.Codec
	RowGroups []RowGroupMeta
	NumRows   int64
}

// encodeValue writes a stats value (kind + null + payload).
func encodeValue(e *protowire.Encoder, field int, v types.Value) {
	e.Message(field, func(m *protowire.Encoder) {
		m.Uint64(1, uint64(v.Kind))
		m.Bool(2, v.Null)
		if v.Null {
			return
		}
		switch v.Kind {
		case types.Int64, types.Date:
			m.Int64(3, v.I)
		case types.Float64:
			m.Double(4, v.F)
		case types.String:
			m.String(5, v.S)
		case types.Bool:
			m.Bool(6, v.B)
		}
	})
}

func decodeValue(d *protowire.Decoder) (types.Value, error) {
	var v types.Value
	for !d.Done() {
		f, ty, err := d.Next()
		if err != nil {
			return v, err
		}
		switch f {
		case 1:
			u, err := d.Uint64()
			if err != nil {
				return v, err
			}
			v.Kind = types.Kind(u)
		case 2:
			v.Null, err = d.Bool()
		case 3:
			v.I, err = d.Int64()
		case 4:
			v.F, err = d.Double()
		case 5:
			v.S, err = d.String()
		case 6:
			v.B, err = d.Bool()
		default:
			err = d.Skip(ty)
		}
		if err != nil {
			return v, err
		}
	}
	return v, nil
}

func encodeFooter(meta *FileMeta) ([]byte, error) {
	e := protowire.NewEncoder()
	// Schema.
	for _, c := range meta.Schema.Columns {
		col := c
		e.Message(1, func(m *protowire.Encoder) {
			m.String(1, col.Name)
			m.Uint64(2, uint64(col.Type))
		})
	}
	e.Uint64(2, uint64(meta.Codec))
	e.Int64(3, meta.NumRows)
	for _, rg := range meta.RowGroups {
		group := rg
		e.Message(4, func(m *protowire.Encoder) {
			m.Int64(1, group.NumRows)
			for _, ch := range group.Chunks {
				chunk := ch
				m.Message(2, func(cm *protowire.Encoder) {
					cm.Int64(1, chunk.Offset)
					cm.Int64(2, chunk.CompressedSize)
					cm.Int64(3, chunk.UncompressedSize)
					cm.Uint64(4, uint64(chunk.Encoding))
					encodeValue(cm, 5, chunk.Stats.Min)
					encodeValue(cm, 6, chunk.Stats.Max)
					cm.Int64(7, chunk.Stats.NullCount)
					cm.Int64(8, chunk.Stats.NumValues)
				})
			}
		})
	}
	return e.Encoded(), nil
}

func decodeFooter(data []byte) (*FileMeta, error) {
	d := protowire.NewDecoder(data)
	meta := &FileMeta{Schema: types.NewSchema()}
	for !d.Done() {
		f, ty, err := d.Next()
		if err != nil {
			return nil, err
		}
		switch f {
		case 1:
			m, err := d.Message()
			if err != nil {
				return nil, err
			}
			col, err := decodeColumn(m)
			if err != nil {
				return nil, err
			}
			meta.Schema.Columns = append(meta.Schema.Columns, col)
		case 2:
			u, err := d.Uint64()
			if err != nil {
				return nil, err
			}
			meta.Codec = compress.Codec(u)
		case 3:
			meta.NumRows, err = d.Int64()
			if err != nil {
				return nil, err
			}
		case 4:
			m, err := d.Message()
			if err != nil {
				return nil, err
			}
			rg, err := decodeRowGroup(m)
			if err != nil {
				return nil, err
			}
			meta.RowGroups = append(meta.RowGroups, rg)
		default:
			if err := d.Skip(ty); err != nil {
				return nil, err
			}
		}
	}
	return meta, nil
}

func decodeColumn(d *protowire.Decoder) (types.Column, error) {
	var col types.Column
	for !d.Done() {
		f, ty, err := d.Next()
		if err != nil {
			return col, err
		}
		switch f {
		case 1:
			col.Name, err = d.String()
		case 2:
			var u uint64
			u, err = d.Uint64()
			col.Type = types.Kind(u)
		default:
			err = d.Skip(ty)
		}
		if err != nil {
			return col, err
		}
	}
	if !col.Type.Valid() {
		return col, fmt.Errorf("parquetlite: invalid column type in footer")
	}
	return col, nil
}

func decodeRowGroup(d *protowire.Decoder) (RowGroupMeta, error) {
	var rg RowGroupMeta
	for !d.Done() {
		f, ty, err := d.Next()
		if err != nil {
			return rg, err
		}
		switch f {
		case 1:
			rg.NumRows, err = d.Int64()
			if err != nil {
				return rg, err
			}
		case 2:
			m, err := d.Message()
			if err != nil {
				return rg, err
			}
			ch, err := decodeChunkMeta(m)
			if err != nil {
				return rg, err
			}
			rg.Chunks = append(rg.Chunks, ch)
		default:
			if err := d.Skip(ty); err != nil {
				return rg, err
			}
		}
	}
	return rg, nil
}

func decodeChunkMeta(d *protowire.Decoder) (ChunkMeta, error) {
	var ch ChunkMeta
	for !d.Done() {
		f, ty, err := d.Next()
		if err != nil {
			return ch, err
		}
		switch f {
		case 1:
			ch.Offset, err = d.Int64()
		case 2:
			ch.CompressedSize, err = d.Int64()
		case 3:
			ch.UncompressedSize, err = d.Int64()
		case 4:
			var u uint64
			u, err = d.Uint64()
			ch.Encoding = Encoding(u)
		case 5:
			var m *protowire.Decoder
			m, err = d.Message()
			if err == nil {
				ch.Stats.Min, err = decodeValue(m)
			}
		case 6:
			var m *protowire.Decoder
			m, err = d.Message()
			if err == nil {
				ch.Stats.Max, err = decodeValue(m)
			}
		case 7:
			ch.Stats.NullCount, err = d.Int64()
		case 8:
			ch.Stats.NumValues, err = d.Int64()
		default:
			err = d.Skip(ty)
		}
		if err != nil {
			return ch, err
		}
	}
	return ch, nil
}
