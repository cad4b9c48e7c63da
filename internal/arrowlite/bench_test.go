package arrowlite

import (
	"testing"

	"prestocs/internal/column"
	"prestocs/internal/types"
)

func benchBatch(rows int) (*types.Schema, *column.Page) {
	schema := types.NewSchema(
		types.Column{Name: "a", Type: types.Int64},
		types.Column{Name: "b", Type: types.Float64},
		types.Column{Name: "s", Type: types.String},
	)
	p := column.NewPage(schema)
	for i := 0; i < rows; i++ {
		p.AppendRow(
			types.IntValue(int64(i)),
			types.FloatValue(float64(i)/3),
			types.StringValue("value"),
		)
	}
	return schema, p
}

func BenchmarkSerialize(b *testing.B) {
	schema, page := benchBatch(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := Serialize(schema, []*column.Page{page})
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(data)))
	}
}

func BenchmarkDeserialize(b *testing.B) {
	schema, page := benchBatch(10000)
	data, _ := Serialize(schema, []*column.Page{page})
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Deserialize(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeBatch decodes one 4096-row result batch of the shape the
// storage node streams back for the join's probe side: (int key, date,
// two floats, a short string), one column with sparse NULLs.
func BenchmarkDecodeBatch(b *testing.B) {
	schema := types.NewSchema(
		types.Column{Name: "k", Type: types.Int64},
		types.Column{Name: "d", Type: types.Date},
		types.Column{Name: "x", Type: types.Float64},
		types.Column{Name: "y", Type: types.Float64},
		types.Column{Name: "s", Type: types.String},
	)
	p := column.NewPage(schema)
	for i := 0; i < 4096; i++ {
		y := types.FloatValue(float64(i) / 7)
		if i%97 == 0 {
			y = types.NullValue(types.Float64)
		}
		p.AppendRow(types.IntValue(int64(i)), types.DateValue(int64(9000+i%365)),
			types.FloatValue(float64(i)/3), y, types.StringValue("1-URGENT"))
	}
	msg, err := AppendBatch(nil, p)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBatchMsg(msg, schema); err != nil {
			b.Fatal(err)
		}
	}
}
