package parquetlite

import (
	"testing"

	"prestocs/internal/column"
	"prestocs/internal/compress"
	"prestocs/internal/expr"
	"prestocs/internal/types"
)

func benchPage(rows int) (*types.Schema, *column.Page) {
	schema := types.NewSchema(
		types.Column{Name: "id", Type: types.Int64},
		types.Column{Name: "v", Type: types.Float64},
		types.Column{Name: "tag", Type: types.String},
	)
	p := column.NewPage(schema)
	for i := 0; i < rows; i++ {
		p.AppendRow(
			types.IntValue(int64(i)),
			types.FloatValue(float64(i)*0.37),
			types.StringValue([]string{"aa", "bb", "cc"}[i%3]),
		)
	}
	return schema, p
}

func BenchmarkWrite(b *testing.B) {
	for _, codec := range compress.Codecs() {
		codec := codec
		b.Run(codec.String(), func(b *testing.B) {
			schema, page := benchPage(10000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				data, err := WritePages(schema, WriterOptions{Codec: codec, RowGroupSize: 2048}, page)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(data)))
			}
		})
	}
}

var benchImage []byte

// BenchmarkWritePage is a compaction's write: one page of 16 whole
// 4096-row Snappy groups, which the writer encodes on every core.
func BenchmarkWritePage(b *testing.B) {
	const group = 4096
	schema, page := benchPage(16 * group)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := NewWriter(schema, WriterOptions{Codec: compress.Snappy, RowGroupSize: group})
		if err := w.WritePage(page); err != nil {
			b.Fatal(err)
		}
		var err error
		if benchImage, err = w.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadAll(b *testing.B) {
	schema, page := benchPage(10000)
	data, err := WritePages(schema, WriterOptions{Codec: compress.Snappy, RowGroupSize: 2048}, page)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := NewReader(data)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.ReadAll([]int{0, 1, 2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPrunedRead(b *testing.B) {
	schema, page := benchPage(10000)
	data, _ := WritePages(schema, WriterOptions{RowGroupSize: 512}, page)
	pred, _ := expr.NewCompare(expr.Gt, expr.Col(0, "id", types.Int64), expr.Lit(types.IntValue(9000)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, _ := NewReader(data)
		for _, rg := range r.PruneRowGroups(pred) {
			if _, err := r.ReadRowGroup(rg, []int{0, 1}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkDecodeChunk is the cold scan's inner loop on the two chunk
// shapes the benchmark's tables are made of: plain floats with no NULLs
// (every lineitem and laghos measure) and a run-length-encoded integer
// (deepwater's timestep).
func BenchmarkDecodeChunk(b *testing.B) {
	const n = 131072
	floats := column.NewVector(types.Float64)
	runs := column.NewVector(types.Int64)
	for i := 0; i < n; i++ {
		floats.Floats = append(floats.Floats, float64(i)*0.37)
		runs.Ints = append(runs.Ints, int64(i/4096))
	}
	for _, c := range []struct {
		name string
		vec  *column.Vector
	}{{"plain_float64", floats}, {"rle_int64", runs}} {
		enc, _, body := encodeChunk(nil, c.vec)
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(8 * n)
			for i := 0; i < b.N; i++ {
				if _, err := decodeChunk(body, c.vec.Kind, enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
