package substrait

import (
	"testing"

	"prestocs/internal/expr"
	"prestocs/internal/types"
)

func benchPlan() *Plan {
	schema := types.NewSchema(
		types.Column{Name: "k", Type: types.Int64},
		types.Column{Name: "x", Type: types.Float64},
		types.Column{Name: "e", Type: types.Float64},
	)
	read := &ReadRel{Bucket: "b", Objects: []string{"o"}, BaseSchema: schema}
	cond, _ := expr.NewBetween(expr.Col(1, "x", types.Float64),
		expr.Lit(types.FloatValue(0.8)), expr.Lit(types.FloatValue(3.2)))
	agg := &AggregateRel{
		Input:     &FilterRel{Input: read, Condition: cond},
		GroupKeys: []int{0},
		Measures: []Measure{
			{Func: AggSum, Arg: 2, Name: "s"},
			{Func: AggCount, Arg: 2, Name: "c"},
		},
	}
	return NewPlan(&FetchRel{
		Input: &SortRel{Input: agg, Keys: []SortKey{{Column: 1}}},
		Count: 100,
	})
}

// BenchmarkMarshal measures Substrait IR generation cost — the overhead
// the paper's Table 3 shows to be under 2% of query time.
func BenchmarkMarshal(b *testing.B) {
	p := benchPlan()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := Marshal(p)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(data)))
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	data, _ := Marshal(benchPlan())
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}
