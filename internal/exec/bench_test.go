package exec

import (
	"fmt"
	"slices"
	"testing"

	"prestocs/internal/bloom"
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

// BenchmarkFilterComputedOperand measures a predicate with a computed
// operand, r < pct AND r + v > 100, where r is the row number mod 100, so
// the left side keeps pct% of every page's rows: the sum is evaluated at
// those rows only, into a page-length vector however few they are. It
// pulls selections (NextSel) and materializes no page.
func BenchmarkFilterComputedOperand(b *testing.B) {
	schema := types.NewSchema(
		types.Column{Name: "r", Type: types.Int64},
		types.Column{Name: "v", Type: types.Float64},
	)
	pages := make([]*column.Page, 16)
	for p := range pages {
		pages[p] = column.NewPage(schema)
		for i := 0; i < 4096; i++ {
			n := p*4096 + i
			pages[p].AppendRow(types.IntValue(int64(n%100)), types.FloatValue(float64(n%1000)))
		}
	}
	r, v := expr.Col(0, "r", types.Int64), expr.Col(1, "v", types.Float64)
	sum, _ := expr.NewArith(expr.Add, r, v)
	right, _ := expr.NewCompare(expr.Gt, sum, expr.Lit(types.FloatValue(100)))
	for _, pct := range []int{1, 25, 100} {
		left, _ := expr.NewCompare(expr.Lt, r, expr.Lit(types.IntValue(int64(pct))))
		pred, _ := expr.NewLogic(expr.And, left, right)
		b.Run(fmt.Sprintf("pct=%d", pct), func(b *testing.B) {
			b.SetBytes(int64(16 * 4096))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, _ := NewFilter(NewPageSource(schema, pages), pred, nil)
				for {
					page, _, err := f.NextSel()
					if err != nil {
						b.Fatal(err)
					}
					if page == nil {
						break
					}
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
// appearing `repeat` times, permuted: no workload delivers keys in this
// order (splitOrderedPages is the order they arrive in).
func q3Pages(keys, repeat int) []*column.Page {
	var pages []*column.Page
	page := column.NewPage(q3Schema)
	for r := 0; r < keys*repeat; r++ {
		k := (r * 7919) % keys
		page.AppendRow(types.IntValue(int64(k)), types.DateValue(int64(8000+k%2400)), types.FloatValue(float64(r)))
		if page.NumRows() == 4096 {
			pages = append(pages, page)
			page = column.NewPage(q3Schema)
		}
	}
	if page.NumRows() > 0 {
		pages = append(pages, page)
	}
	return pages
}

// sparseKeys returns the pages with every orderkey k made k<<24, so that
// the keys span 2^40 and a key table hashes them from its first chunk.
func sparseKeys(pages []*column.Page) []*column.Page {
	out := make([]*column.Page, len(pages))
	for i, p := range pages {
		keys := make([]int64, len(p.Vectors[0].Ints))
		for r, k := range p.Vectors[0].Ints {
			keys[r] = k << 24
		}
		vecs := slices.Clone(p.Vectors)
		vecs[0] = &column.Vector{Kind: types.Int64, Ints: keys}
		out[i] = &column.Page{Schema: p.Schema, Vectors: vecs}
	}
	return out
}

// Split orders of the split-ordered cases: a leaf worker drains its
// splits in whatever order the scheduler hands them out.
var (
	buildSplits = []int{3, 6, 0, 5, 2, 7, 1, 4}
	probeSplits = []int{5, 1, 6, 2, 7, 3, 0, 4}
)

// BenchmarkHashAggregateHighCardinality is Q3's aggregate: ~38k groups
// keyed by (Int64, Date), three rows each. permuted spreads the keys over
// the pages; split-ordered delivers them as Q3's leaf aggregate receives
// them, split by split with ascending keys, 29 % of each split's keys
// kept; sparse is permuted with keys spanning 2^40, which the key table
// hashes.
func BenchmarkHashAggregateHighCardinality(b *testing.B) {
	permuted := q3Pages(38000, 3)
	cases := []struct {
		name  string
		pages []*column.Page
	}{
		{"permuted", permuted},
		{"split-ordered", splitOrderedPages(buildSplits, 16384, 29, 3)},
		{"sparse", sparseKeys(permuted)},
	}
	measures := []substrait.Measure{{Func: substrait.AggSum, Arg: 2, Name: "revenue"}}
	for _, c := range cases {
		rows := 0
		for _, p := range c.pages {
			rows += p.NumRows()
		}
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(rows))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				agg, _ := NewHashAggregate(NewPageSource(q3Schema, c.pages), []int{0, 1}, measures, AggSingle, nil)
				if _, err := Drain(agg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHashAggregateStringKeys keys the aggregate by two short
// strings. groups=4 is Q1's shape (returnflag, linestatus) — the case the
// map[string] index served from Go's no-hash path for maps of at most
// eight entries; groups=64 is the first size where a map has to hash. The
// dict/ cases hold the same pages with both key columns in dictionary
// form, each page numbering its strings in its own order, as pages
// decoded from Dict chunks arrive at a storage node's aggregate; the
// dict-nulls/ cases make every seventh flag and every eleventh status
// NULL. groups=256 is 16 × 16 strings, whose Dicts combine in more ways
// than the key table's code cache takes.
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
	flags := []string{"A", "N", "R", "B", "C", "D", "E", "G", "H", "I", "J", "K", "L", "M", "O", "P"}
	for _, groups := range []int{4, 64, 256} {
		width := 8
		if groups > 64 {
			width = 16
		}
		for _, form := range []string{"", "dict/", "dict-nulls/"} {
			pages := make([]*column.Page, 16)
			for p := range pages {
				page := column.NewPage(schema)
				for r := 0; r < 4096; r++ {
					g := (r*31 + p) % groups
					flag, status := types.StringValue(flags[g%width]), types.StringValue(flags[g/width])
					if form == "dict-nulls/" && r%7 == 3 {
						flag = types.NullValue(types.String)
					}
					if form == "dict-nulls/" && r%11 == 5 {
						status = types.NullValue(types.String)
					}
					page.AppendRow(flag, status, types.FloatValue(float64(r%50)))
				}
				pages[p] = page
			}
			if form != "" {
				pages = dictPages(pages)
			}
			b.Run(fmt.Sprintf("%sgroups=%d", form, groups), func(b *testing.B) {
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
}

// BenchmarkJoinBuildProbe is Q3's join: build ~16k unique Int64 keys,
// probe 64k rows of which a quarter find a match. permuted spreads the
// keys over the pages; split-ordered delivers both sides split by split
// with ascending keys, as Q3's orders and lineitem splits arrive, the
// build keeping 25 % of each split's keys; sparse is permuted with keys
// spanning 2^40, which the key table hashes.
func BenchmarkJoinBuildProbe(b *testing.B) {
	build, probe := q3Pages(16384, 1), q3Pages(65536, 1)
	cases := []struct {
		name         string
		build, probe []*column.Page
	}{
		{"permuted", build, probe},
		{"split-ordered", splitOrderedPages(buildSplits, 8192, 25, 1), splitOrderedPages(probeSplits, 8192, 100, 1)},
		{"sparse", sparseKeys(build), sparseKeys(probe)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(16384 + 65536)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				table, err := BuildJoinTable(NewPageSource(q3Schema, c.build), []int{0}, nil)
				if err != nil {
					b.Fatal(err)
				}
				j, _ := NewHashJoinProbe(NewPageSource(q3Schema, c.probe), table, []int{0}, nil)
				if _, err := Drain(j); err != nil {
					b.Fatal(err)
				}
			}
		})
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

// BenchmarkLeafPipeline is the suite's heaviest leaf pipelines — filter →
// partial aggregate for Laghos, filter → project → partial aggregate for
// TPC-H Q1 and for Deep Water — over resident pages of the generated
// tables at a quarter of the benchmark's scale: the plans of
// plans.golden's `laghos [all]`, `tpch_q1 [all]` and `deepwater [all]`
// below the exchange, which is the code a storage node runs under
// ocs.pushdown=all and the engine under none. Deep Water's filter keeps
// 18 % of the rows, the sparse case for a projection's computed columns.
// q1-nulls is Q1 with quantity, which it sums and counts, NULL on every
// eighth row: a mask on every page, so those two measures keep NULL
// counts and the group row count rides in the next SUM.
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

	for _, name := range []string{"q1", "q1-nulls"} {
		b.Run(name, func(b *testing.B) { benchmarkQ1Leaf(b, name == "q1-nulls") })
	}

	b.Run("deepwater", func(b *testing.B) {
		d, err := workload.DeepWater(workload.Config{Files: 4, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		schema, pages := residentPages(b, d, []int{0, 1, 3}) // rowid, v02, timestep
		col := func(i int) expr.Expr { return expr.Col(i, schema.Columns[i].Name, schema.Columns[i].Type) }
		pred := mustExpr(expr.NewCompare(expr.Gt, col(1), lit(0.1)))
		mod := mustExpr(expr.NewArith(expr.Mod, col(0), expr.Lit(types.IntValue(250000))))
		exprs := []expr.Expr{col(2), mustExpr(expr.NewArith(expr.Div, mod, expr.Lit(types.IntValue(500))))}
		measures := []substrait.Measure{{Func: substrait.AggMax, Arg: 1, Name: "$agg0"}}
		b.SetBytes(int64(len(pages) * 4096))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f, _ := NewFilter(NewPageSource(schema, pages), pred, nil)
			p, err := NewProject(f, exprs, []string{"timestep", "$arg0"}, nil)
			if err != nil {
				b.Fatal(err)
			}
			agg, err := NewHashAggregate(p, []int{0}, measures, AggPartial, nil)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := Drain(agg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchmarkQ1Leaf is BenchmarkLeafPipeline's Q1 chain; with nulls,
// quantity (column 0) is NULL on every eighth row of every page.
func benchmarkQ1Leaf(b *testing.B, nulls bool) {
	d, err := workload.TPCH(workload.Config{Files: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	// quantity, extendedprice, discount, tax, returnflag, linestatus, shipdate
	schema, pages := residentPages(b, d, []int{1, 2, 3, 4, 5, 6, 7})
	if nulls {
		for i, p := range pages {
			vecs := slices.Clone(p.Vectors)
			qty := *vecs[0]
			qty.Nulls = make([]bool, qty.Len())
			for r := 3; r < len(qty.Nulls); r += 8 {
				qty.Nulls[r] = true
			}
			vecs[0] = &qty
			pages[i] = &column.Page{Schema: p.Schema, Vectors: vecs}
		}
	}
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
}

// BenchmarkJoinAggregate is Q3's leaf chain in the engine — join probe →
// project → aggregate → partial top-N, the plan of plans.golden's
// `tpch_q3` below the exchange — over resident pages of the generated
// lineitem and orders at a quarter of the benchmark's scale, the build
// side the orders before 1994. bloom/ probes only the lineitem rows whose
// order is there, as the exact direct filter leaves them in storage, so
// every probe row matches; no-bloom/ probes them all, and the join's
// selection keeps ≈ 29 %. groupjoin groups by the join's key ids, as the
// engine compiles Q3; keytable groups the same rows through a key table.
func BenchmarkJoinAggregate(b *testing.B) {
	line, err := workload.TPCH(workload.Config{Files: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ords, err := workload.TPCHOrders(workload.Config{Files: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	buildSchema, orders := residentPages(b, ords, []int{0, 1}) // orderkey, orderdate
	probeSchema, lineitem := residentPages(b, line, []int{0, 2, 3})
	early := mustExpr(expr.NewCompare(expr.Lt, expr.Col(1, "orderdate", types.Date), expr.Lit(types.DateValue(8766)))) // 1994-01-01
	build, err := Drain(mustOp(NewFilter(NewPageSource(buildSchema, orders), early, nil)))
	if err != nil {
		b.Fatal(err)
	}
	table, err := BuildJoinTable(NewPageSource(buildSchema, build), []int{0}, nil)
	if err != nil || !table.Unique() {
		b.Fatalf("build: %v, unique %v", err, table.Unique())
	}
	filter, err := table.BuildBloom(bloom.DefaultBitsPerKey)
	if err != nil {
		b.Fatal(err)
	}
	var matched []*column.Page
	for _, p := range lineitem {
		sel, err := filter.TestVector(p.Vectors[0], nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(sel) > 0 {
			matched = append(matched, p.FilterSel(sel))
		}
	}

	col := func(i int, name string, k types.Kind) expr.Expr { return expr.Col(i, name, k) }
	revenue := mustExpr(expr.NewArith(expr.Mul, col(1, "extendedprice", types.Float64),
		mustExpr(expr.NewArith(expr.Sub, expr.Lit(types.IntValue(1)), col(2, "discount", types.Float64)))))
	exprs := []expr.Expr{col(0, "orderkey", types.Int64), col(4, "orderdate", types.Date), revenue}
	measures := []substrait.Measure{{Func: substrait.AggSum, Arg: 2, Name: "$agg0"}}
	for _, c := range []struct {
		name  string
		pages []*column.Page
	}{{"bloom", matched}, {"no-bloom", lineitem}} {
		for _, groupJoin := range []bool{true, false} {
			name := c.name + map[bool]string{true: "/groupjoin", false: "/keytable"}[groupJoin]
			rows := 0
			for _, p := range c.pages {
				rows += p.NumRows()
			}
			b.Run(name, func(b *testing.B) {
				b.SetBytes(int64(rows))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					j, err := NewHashJoinProbe(NewPageSource(probeSchema, c.pages), table, []int{0}, nil)
					if err != nil {
						b.Fatal(err)
					}
					agg, err := NewHashAggregate(mustOp(NewProject(j, exprs, []string{"orderkey", "orderdate", "$arg0"}, nil)),
						[]int{0, 1}, measures, AggSingle, nil)
					if err != nil {
						b.Fatal(err)
					}
					if groupJoin {
						if err := agg.GroupByJoin(j); err != nil {
							b.Fatal(err)
						}
					}
					top, err := NewTopN(agg, []SortSpec{{Column: 2, Descending: true}}, 10, nil)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := Drain(top); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func mustOp[T Operator](op T, err error) Operator {
	if err != nil {
		panic(err)
	}
	return op
}
