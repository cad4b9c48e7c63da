package harness

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"prestocs/internal/column"
	ocsconn "prestocs/internal/connector/ocs"
	"prestocs/internal/engine"
	"prestocs/internal/ingest"
	"prestocs/internal/parquetlite"
	"prestocs/internal/types"
	"prestocs/internal/workload"
)

// The dictionary differential: string columns decoded from Dict chunks
// stay codes over a per-chunk dictionary from the scan to the group key,
// the join key and the wire (column.Vector's dictionary form). Each chunk
// numbers its strings in its own first-seen order, so a code means
// something else in every chunk; the fixture makes sure of that, and
// holds NULL rows and a chunk that fell back to plain strings. Every
// answer over ocs. must be the answer over hive., whose CSV results reach
// the engine as plain strings.

var (
	dictSchema = types.NewSchema(
		types.Column{Name: "seq", Type: types.Int64},
		types.Column{Name: "flag", Type: types.String},
		types.Column{Name: "status", Type: types.String},
		types.Column{Name: "name", Type: types.String},
		types.Column{Name: "qty", Type: types.Float64},
	)
	dictDimSchema = types.NewSchema(
		types.Column{Name: "flag", Type: types.String},
		types.Column{Name: "label", Type: types.String},
		types.Column{Name: "rank", Type: types.Int64},
	)
)

const (
	dictRowGroup = 64
	dFlag        = 1
	dStatus      = 2
)

// dictDatasets returns dicttbl, three objects of two row groups each, and
// dictdim, the join's build side, with dicttbl's rows. A row group's flag
// and status take their values in an order rotated by the row group, so
// every chunk numbers them differently; every seventh flag is NULL; and in
// the fifth row group every odd row's flag is unique, which takes that
// chunk past n/4+1 distinct values, to plain encoding. Strings are short
// (packed into the key word) and long (interned), "" among them.
func dictDatasets(t *testing.T) (tbl, dim *workload.Dataset, rows [][]types.Value) {
	t.Helper()
	flags := []string{"A", "B", "C", "D", ""}
	statuses := []string{"OPEN", "SHIPPED-IN-PART", "RETURNED-IN-FULL"}
	names := []string{"alpha", "bravo", "a name of some length", "x"}
	var pages []*column.Page
	for obj := 0; obj < 3; obj++ {
		page := column.NewPage(dictSchema)
		for r := 0; r < 2*dictRowGroup; r++ {
			seq := int64(len(rows))
			g, i := int(seq)/dictRowGroup, r%dictRowGroup
			flag := types.StringValue(flags[(i+g)%len(flags)])
			switch {
			case seq%7 == 3:
				flag = types.NullValue(types.String)
			case g == 4 && i%2 == 1:
				flag = types.StringValue(fmt.Sprintf("X%02d", i))
			}
			row := []types.Value{
				types.IntValue(seq),
				flag,
				types.StringValue(statuses[(i/3+2*g)%len(statuses)]),
				types.StringValue(names[(i*5+g)%len(names)]),
				types.FloatValue(float64(seq % 10)),
			}
			page.AppendRow(row...)
			rows = append(rows, row)
		}
		pages = append(pages, page)
	}
	tbl = sealDataset(t, ingest.TableSpec{Schema: CatalogOCS, Name: "dicttbl", Bucket: "dicttbl", Columns: dictSchema}, dictRowGroup, pages)

	dimPage := column.NewPage(dictDimSchema)
	dimFlags := []string{"D", "A", "", "C", "Z"}
	for i := 0; i < 24; i++ {
		flag := types.NullValue(types.String)
		if k := i % 6; k < len(dimFlags) {
			flag = types.StringValue(dimFlags[k])
		}
		dimPage.AppendRow(flag, types.StringValue(fmt.Sprintf("label-%d", i)), types.IntValue(int64(i)))
	}
	dim = sealDataset(t, ingest.TableSpec{Schema: CatalogOCS, Name: "dictdim", Bucket: "dictdim", Columns: dictDimSchema}, 32, []*column.Page{dimPage})
	return tbl, dim, rows
}

// checkDictFixture holds the fixture to what the differential needs: the
// flag chunks include a plain one and dictionary ones that number the
// same strings differently, and NULL rows.
func checkDictFixture(t *testing.T, d *workload.Dataset) {
	t.Helper()
	var plain int
	var orders [][]string
	for _, key := range d.Table.Objects {
		r, err := parquetlite.NewReader(d.Objects[key])
		if err != nil {
			t.Fatal(err)
		}
		for rg := range r.Meta().RowGroups {
			vec, err := r.ReadColumn(rg, dFlag)
			if err != nil {
				t.Fatal(err)
			}
			if !vec.HasNulls() {
				t.Fatalf("%s row group %d: the flag chunk has no NULL row", key, rg)
			}
			if vec.Dict == nil {
				plain++
				continue
			}
			if !slices.ContainsFunc(orders, func(o []string) bool { return slices.Equal(o, vec.Dict) }) {
				orders = append(orders, vec.Dict)
			}
		}
	}
	if plain != 1 || len(orders) < 2 {
		t.Fatalf("flag chunks: %d plain, %d distinct dictionary orders; the fixture wants 1 and several", plain, len(orders))
	}
}

// stringCmp is SQL's comparison of a string value with a literal: NULL
// compares false.
func stringCmp(v types.Value, op, lit string) bool {
	if v.Null {
		return false
	}
	switch op {
	case "=":
		return v.S == lit
	case "<>":
		return v.S != lit
	case "<":
		return v.S < lit
	case "<=":
		return v.S <= lit
	case ">":
		return v.S > lit
	default: // ">="
		return v.S >= lit
	}
}

// TestDictionaryVectorsDifferential runs GROUP BY on one and on two string
// keys, every string predicate shape and a join on a string key with the
// bloom filter on, over ocs. in every pushdown mode, at one leaf worker
// and at four, with the storage nodes' caches cold and then warm; each
// answer must be byte for byte the answer over hive., and a predicate's
// rows must also be the ones a row-at-a-time filter of the fixture keeps.
func TestDictionaryVectorsDifferential(t *testing.T) {
	c := testCluster(t)
	tbl, dim, rows := dictDatasets(t)
	checkDictFixture(t, tbl)
	for _, d := range []*workload.Dataset{tbl, dim} {
		if err := c.Load(d); err != nil {
			t.Fatal(err)
		}
	}

	type query struct {
		name, sql string
		keep      func(row []types.Value) bool // a predicate's reference; nil for the rest
	}
	// Every query filters each scan, so that hive. reads CSV results.
	queries := []query{
		{name: "group by one string key", sql: "SELECT flag, count(*) AS n, sum(qty) AS q FROM %[1]s.dicttbl WHERE seq >= 0 GROUP BY flag ORDER BY flag"},
		{name: "group by two string keys", sql: "SELECT flag, status, count(*) AS n, min(name) AS lo, max(name) AS hi FROM %[1]s.dicttbl WHERE seq >= 0 GROUP BY flag, status ORDER BY flag, status"},
		{name: "join on a string key", sql: "SELECT d.seq AS seq, d.flag AS flag, m.label AS label FROM %[1]s.dicttbl AS d JOIN %[1]s.dictdim AS m ON d.flag = m.flag WHERE d.seq >= 0 AND m.rank >= 0 ORDER BY seq, label"},
	}
	for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
		for _, lit := range []string{"B", "", "X07"} {
			queries = append(queries, query{name: "flag " + op + " '" + lit + "'", sql: "flag " + op + " '" + lit + "'",
				keep: func(r []types.Value) bool { return stringCmp(r[dFlag], op, lit) }})
		}
	}
	queries = append(queries,
		query{name: "literal on the left", sql: "'B' < flag", keep: func(r []types.Value) bool { return stringCmp(r[dFlag], ">", "B") }},
		query{name: "BETWEEN", sql: "flag BETWEEN 'A' AND 'C'", keep: func(r []types.Value) bool { return stringCmp(r[dFlag], ">=", "A") && stringCmp(r[dFlag], "<=", "C") }},
		query{name: "IN list", sql: "(flag = 'A' OR flag = 'D' OR flag = 'X07' OR flag = 'nope')", keep: func(r []types.Value) bool {
			return stringCmp(r[dFlag], "=", "A") || stringCmp(r[dFlag], "=", "D") || stringCmp(r[dFlag], "=", "X07")
		}},
		query{name: "IS NULL", sql: "flag IS NULL", keep: func(r []types.Value) bool { return r[dFlag].Null }},
		query{name: "IS NOT NULL", sql: "flag IS NOT NULL", keep: func(r []types.Value) bool { return !r[dFlag].Null }},
		query{name: "two columns", sql: "flag < status", keep: func(r []types.Value) bool { return stringCmp(r[dFlag], "<", r[dStatus].S) }},
		query{name: "two conjuncts", sql: "flag > 'A' AND status <> 'OPEN'", keep: func(r []types.Value) bool {
			return stringCmp(r[dFlag], ">", "A") && stringCmp(r[dStatus], "<>", "OPEN")
		}},
	)
	for i, q := range queries {
		if q.keep != nil {
			queries[i].sql = "SELECT seq, flag, status FROM %[1]s.dicttbl WHERE " + q.sql + " ORDER BY seq"
		}
	}

	bloomOn := engine.NewSession().Set(engine.SessionJoinBloom, "on")
	want := make([][]string, len(queries))
	for i, q := range queries {
		res, err := execute(context.Background(), c.Engine, fmt.Sprintf(q.sql, CatalogHive), bloomOn)
		if err != nil {
			t.Fatalf("%s over hive: %v", q.name, err)
		}
		want[i] = orderedRows(res.Page)
		if q.keep == nil {
			if len(want[i]) == 0 {
				t.Fatalf("%s over hive: no rows", q.name)
			}
			continue
		}
		var ref []string
		for _, r := range rows {
			if q.keep(r) {
				ref = append(ref, renderRow([]types.Value{r[0], r[dFlag], r[dStatus]}))
			}
		}
		assertRowsEqual(t, q.name+" over hive against the row-at-a-time filter", want[i], ref)
	}

	for _, workers := range []int{1, 4} {
		c.Engine.Workers = workers
		for _, mode := range []string{"none", "filter", "all", "auto"} {
			session := engine.NewSession().Set(engine.SessionJoinBloom, "on").Set(ocsconn.SessionPushdown, mode)
			for i, q := range queries {
				c.FlushNodeCaches()
				for _, caches := range []string{"cold", "warm"} {
					label := fmt.Sprintf("%s over ocs [%s, %d workers, %s caches]", q.name, mode, workers, caches)
					res, err := execute(context.Background(), c.Engine, fmt.Sprintf(q.sql, CatalogOCS), session)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					assertRowsEqual(t, label, orderedRows(res.Page), want[i])
				}
			}
		}
	}
}
