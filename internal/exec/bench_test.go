package exec

import (
	"fmt"
	"testing"

	"prestocs/internal/column"
	"prestocs/internal/expr"
	"prestocs/internal/parquetlite"
	"prestocs/internal/substrait"
	"prestocs/internal/types"
	"prestocs/internal/workload"
)

func benchPages(pages, rows int) (*types.Schema, []*column.Page) {
	schema := types.NewSchema(
		types.Column{Name: "k", Type: types.Int64},
		types.Column{Name: "v", Type: types.Float64},
	)
	out := make([]*column.Page, pages)
	n := 0
	for p := range out {
		page := column.NewPage(schema)
		for r := 0; r < rows; r++ {
			page.AppendRow(types.IntValue(int64(n%64)), types.FloatValue(float64(n)))
			n++
		}
		out[p] = page
	}
	return schema, out
}

func BenchmarkFilter(b *testing.B) {
	schema, pages := benchPages(16, 4096)
	pred, _ := expr.NewCompare(expr.Gt, expr.Col(1, "v", types.Float64), expr.Lit(types.FloatValue(1000)))
	b.SetBytes(int64(16 * 4096))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, _ := NewFilter(NewPageSource(schema, pages), pred, nil)
		if _, err := Drain(f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFilterSelectivity sweeps the fraction of surviving rows. The
// extremes exercise the kernel fast paths: at ~100% the filter returns the
// input page untouched, at ~0% no output page is ever materialized.
func BenchmarkFilterSelectivity(b *testing.B) {
	schema, pages := benchPages(16, 4096)
	total := 16 * 4096
	for _, pct := range []int{1, 25, 50, 99} {
		// v is 0..total-1, so v > threshold keeps ~pct% of the rows.
		threshold := float64(total) * float64(100-pct) / 100
		pred, _ := expr.NewCompare(expr.Gt, expr.Col(1, "v", types.Float64), expr.Lit(types.FloatValue(threshold)))
		b.Run(fmt.Sprintf("pct=%d", pct), func(b *testing.B) {
			b.SetBytes(int64(total))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, _ := NewFilter(NewPageSource(schema, pages), pred, nil)
				if _, err := Drain(f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFilterProject measures the selection handover: Project pulls
// (page, selection) pairs from Filter and evaluates its expressions over
// surviving rows only, never materializing the filtered page.
func BenchmarkFilterProject(b *testing.B) {
	schema, pages := benchPages(16, 4096)
	pred, _ := expr.NewCompare(expr.Gt, expr.Col(1, "v", types.Float64), expr.Lit(types.FloatValue(32768)))
	proj, _ := expr.NewArith(expr.Add, expr.Col(1, "v", types.Float64), expr.Col(0, "k", types.Int64))
	b.SetBytes(int64(16 * 4096))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, _ := NewFilter(NewPageSource(schema, pages), pred, nil)
		p, _ := NewProject(f, []expr.Expr{proj}, []string{"x"}, nil)
		if _, err := Drain(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashAggregate(b *testing.B) {
	schema, pages := benchPages(16, 4096)
	measures := []substrait.Measure{
		{Func: substrait.AggSum, Arg: 1, Name: "s"},
		{Func: substrait.AggCountStar, Arg: -1, Name: "c"},
	}
	b.SetBytes(int64(16 * 4096))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg, _ := NewHashAggregate(NewPageSource(schema, pages), []int{0}, measures, AggSingle, nil)
		if _, err := Drain(agg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHashAggregateGlobal is the no-keys variant: a single group, so
// the run is dominated by the columnar accumulator loops rather than key
// encoding and hash probes.
func BenchmarkHashAggregateGlobal(b *testing.B) {
	schema, pages := benchPages(16, 4096)
	measures := []substrait.Measure{
		{Func: substrait.AggSum, Arg: 1, Name: "s"},
		{Func: substrait.AggMin, Arg: 1, Name: "mn"},
		{Func: substrait.AggMax, Arg: 1, Name: "mx"},
		{Func: substrait.AggCountStar, Arg: -1, Name: "c"},
	}
	b.SetBytes(int64(16 * 4096))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg, _ := NewHashAggregate(NewPageSource(schema, pages), nil, measures, AggSingle, nil)
		if _, err := Drain(agg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopN(b *testing.B) {
	schema, pages := benchPages(16, 4096)
	b.SetBytes(int64(16 * 4096))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topn, _ := NewTopN(NewPageSource(schema, pages), []SortSpec{{Column: 1, Descending: true}}, 100, nil)
		if _, err := Drain(topn); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTopNOneLargePage is Q3's shape: the final aggregate hands
// Top-N its ~38k groups as a single page and the query keeps 10.
func BenchmarkTopNOneLargePage(b *testing.B) {
	schema, pages := benchPages(1, 38000)
	for i := range pages[0].Vectors[1].Floats {
		pages[0].Vectors[1].Floats[i] = float64((i * 7919) % 38000) // hash order, not sorted
	}
	b.SetBytes(38000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topn, _ := NewTopN(NewPageSource(schema, pages), []SortSpec{{Column: 1, Descending: true}}, 10, nil)
		if _, err := Drain(topn); err != nil {
			b.Fatal(err)
		}
	}
}

// q3Pages is the join/aggregate input at Q3's shape: rows (orderkey Int64,
// orderdate Date, revenue Float64) in 4096-row pages, every orderkey
// appearing `repeat` times, not clustered.
func q3Pages(keys, repeat int) (*types.Schema, []*column.Page) {
	schema := types.NewSchema(
		types.Column{Name: "orderkey", Type: types.Int64},
		types.Column{Name: "orderdate", Type: types.Date},
		types.Column{Name: "revenue", Type: types.Float64},
	)
	var pages []*column.Page
	page := column.NewPage(schema)
	for r := 0; r < keys*repeat; r++ {
		k := (r * 7919) % keys
		page.AppendRow(types.IntValue(int64(k)), types.DateValue(int64(8000+k%2400)), types.FloatValue(float64(r)))
		if page.NumRows() == 4096 {
			pages = append(pages, page)
			page = column.NewPage(schema)
		}
	}
	if page.NumRows() > 0 {
		pages = append(pages, page)
	}
	return schema, pages
}

// BenchmarkHashAggregateHighCardinality is Q3's final aggregate: ~38k
// groups keyed by (Int64, Date), about three rows each.
func BenchmarkHashAggregateHighCardinality(b *testing.B) {
	schema, pages := q3Pages(38000, 3)
	measures := []substrait.Measure{{Func: substrait.AggSum, Arg: 2, Name: "revenue"}}
	b.SetBytes(38000 * 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg, _ := NewHashAggregate(NewPageSource(schema, pages), []int{0, 1}, measures, AggSingle, nil)
		if _, err := Drain(agg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHashAggregateStringKeys keys the aggregate by two short
// strings. groups=4 is Q1's shape (returnflag, linestatus) — the case the
// map[string] index served from Go's no-hash path for maps of at most
// eight entries; groups=64 is the first size where a map has to hash.
func BenchmarkHashAggregateStringKeys(b *testing.B) {
	schema := types.NewSchema(
		types.Column{Name: "returnflag", Type: types.String},
		types.Column{Name: "linestatus", Type: types.String},
		types.Column{Name: "quantity", Type: types.Float64},
	)
	measures := []substrait.Measure{
		{Func: substrait.AggSum, Arg: 2, Name: "sum_qty"},
		{Func: substrait.AggCountStar, Arg: -1, Name: "count_order"},
	}
	for _, groups := range []int{4, 64} {
		flags := []string{"A", "N", "R", "B", "C", "D", "E", "G"}
		pages := make([]*column.Page, 16)
		for p := range pages {
			page := column.NewPage(schema)
			for r := 0; r < 4096; r++ {
				g := (r*31 + p) % groups
				page.AppendRow(types.StringValue(flags[g%8]), types.StringValue(flags[g/8]), types.FloatValue(float64(r%50)))
			}
			pages[p] = page
		}
		b.Run(fmt.Sprintf("groups=%d", groups), func(b *testing.B) {
			b.SetBytes(16 * 4096)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				agg, _ := NewHashAggregate(NewPageSource(schema, pages), []int{0, 1}, measures, AggSingle, nil)
				if _, err := Drain(agg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkJoinBuildProbe is Q3's join: build 16k unique Int64 keys, probe
// 64k rows of which a quarter find a match.
func BenchmarkJoinBuildProbe(b *testing.B) {
	schema, build := q3Pages(16384, 1)
	_, probe := q3Pages(65536, 1)
	b.SetBytes(16384 + 65536)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table, err := BuildJoinTable(NewPageSource(schema, build), []int{0}, nil)
		if err != nil {
			b.Fatal(err)
		}
		j, _ := NewHashJoinProbe(NewPageSource(schema, probe), table, []int{0}, nil)
		if _, err := Drain(j); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSort(b *testing.B) {
	schema, pages := benchPages(8, 4096)
	b.SetBytes(int64(8 * 4096))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, _ := NewSort(NewPageSource(schema, pages), []SortSpec{{Column: 1}}, nil)
		if _, err := Drain(s); err != nil {
			b.Fatal(err)
		}
	}
}

// residentPages decodes the given columns of every object of a generated
// table: what a leaf pipeline reads once the page cache is warm.
func residentPages(b *testing.B, d *workload.Dataset, cols []int) (*types.Schema, []*column.Page) {
	b.Helper()
	var pages []*column.Page
	for _, key := range d.Table.Objects {
		r, err := parquetlite.NewReader(d.Objects[key])
		if err != nil {
			b.Fatal(err)
		}
		rgs, err := r.ReadAll(cols)
		if err != nil {
			b.Fatal(err)
		}
		pages = append(pages, rgs...)
	}
	return pages[0].Schema, pages
}

func mustExpr[T expr.Expr](e T, err error) expr.Expr {
	if err != nil {
		panic(err)
	}
	return e
}

// BenchmarkLeafPipeline is the suite's two heaviest leaf pipelines —
// filter → partial aggregate for Laghos, filter → project → partial
// aggregate for TPC-H Q1 — over resident pages of the generated tables at
// a quarter of the benchmark's scale: the plans of plans.golden's
// `laghos [all]` and `tpch_q1 [all]` below the exchange, which is the code
// a storage node runs under ocs.pushdown=all and the engine under none.
func BenchmarkLeafPipeline(b *testing.B) {
	lit := func(f float64) expr.Expr { return expr.Lit(types.FloatValue(f)) }

	b.Run("laghos", func(b *testing.B) {
		d, err := workload.Laghos(workload.Config{Files: 8, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		schema, pages := residentPages(b, d, []int{0, 1, 2, 3, 4}) // vertex_id, x, y, z, e
		var conjuncts []expr.Expr
		for c := 1; c <= 3; c++ {
			conjuncts = append(conjuncts, mustExpr(expr.NewBetween(expr.Col(c, schema.Columns[c].Name, types.Float64), lit(0.8), lit(3.2))))
		}
		pred := expr.AndAll(conjuncts)
		measures := []substrait.Measure{
			{Func: substrait.AggMin, Arg: 0, Name: "$agg0"},
			{Func: substrait.AggMin, Arg: 1, Name: "$agg1"},
			{Func: substrait.AggMin, Arg: 2, Name: "$agg2"},
			{Func: substrait.AggMin, Arg: 3, Name: "$agg3"},
			{Func: substrait.AggSum, Arg: 4, Name: "$agg4"},
			{Func: substrait.AggCount, Arg: 4, Name: "$agg5"},
		}
		b.SetBytes(int64(len(pages) * 4096))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f, _ := NewFilter(NewPageSource(schema, pages), pred, nil)
			agg, err := NewHashAggregate(f, []int{0}, measures, AggPartial, nil)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := Drain(agg); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("q1", func(b *testing.B) {
		d, err := workload.TPCH(workload.Config{Files: 2, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		// quantity, extendedprice, discount, tax, returnflag, linestatus, shipdate
		schema, pages := residentPages(b, d, []int{1, 2, 3, 4, 5, 6, 7})
		col := func(i int) expr.Expr { return expr.Col(i, schema.Columns[i].Name, schema.Columns[i].Type) }
		pred := mustExpr(expr.NewCompare(expr.Le, col(6), expr.Lit(types.DateValue(10471))))
		one := expr.Lit(types.IntValue(1))
		discPrice := func() expr.Expr {
			return mustExpr(expr.NewArith(expr.Mul, col(1), mustExpr(expr.NewArith(expr.Sub, one, col(2)))))
		}
		charge := mustExpr(expr.NewArith(expr.Mul, discPrice(), mustExpr(expr.NewArith(expr.Add, one, col(3)))))
		exprs := []expr.Expr{col(4), col(5), col(0), col(1), discPrice(), charge, col(0), col(1), col(2), col(2)}
		names := []string{"returnflag", "linestatus", "$arg0", "$arg1", "$arg2", "$arg3", "$arg4", "$arg5", "$arg6", "$arg7"}
		var measures []substrait.Measure
		for i, fn := range []substrait.AggFunc{substrait.AggSum, substrait.AggSum, substrait.AggSum, substrait.AggSum,
			substrait.AggCount, substrait.AggCount, substrait.AggSum, substrait.AggCount} {
			measures = append(measures, substrait.Measure{Func: fn, Arg: 2 + i, Name: fmt.Sprintf("$agg%d", i)})
		}
		measures = append(measures, substrait.Measure{Func: substrait.AggCountStar, Arg: -1, Name: "$agg8"})
		b.SetBytes(int64(len(pages) * 4096))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f, _ := NewFilter(NewPageSource(schema, pages), pred, nil)
			p, err := NewProject(f, exprs, names, nil)
			if err != nil {
				b.Fatal(err)
			}
			agg, err := NewHashAggregate(p, []int{0, 1}, measures, AggPartial, nil)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := Drain(agg); err != nil {
				b.Fatal(err)
			}
		}
	})
}
