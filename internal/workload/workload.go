// Package workload generates the evaluation datasets and queries: a
// Laghos-like fluid-dynamics mesh, a Deep Water Impact-like timestep
// series and TPC-H lineitem for Q1 (DESIGN.md §2 documents how each
// substitution preserves the paper workload's behaviour — schemas,
// per-operator reduction ratios and group cardinalities match; absolute
// sizes are scaled down).
//
// Every generator is deterministic in its seed, and computes exact zone
// maps per object and per table and a sketched NDV for the metastore.
// Nothing is declared about how keys fall across objects: the metastore
// derives split-disjointness from the per-object zone maps (vertex_id for
// Laghos, timestep for Deep Water, orderkey for TPC-H), and that is what
// makes per-object aggregation complete.
package workload

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"prestocs/internal/column"
	"prestocs/internal/compress"
	"prestocs/internal/ingest"
	"prestocs/internal/metastore"
	"prestocs/internal/parquetlite"
	"prestocs/internal/types"
)

// Config scales a generated dataset.
type Config struct {
	// Files is the object count (paper: 256 Laghos, 64 Deep Water).
	Files int
	// RowsPerFile scales volume (paper: 4.19M Laghos, 27M Deep Water).
	RowsPerFile int
	// Codec compresses column chunks.
	Codec compress.Codec
	// RowGroupSize caps rows per row group (default 4096).
	RowGroupSize int
	// Seed makes generation deterministic.
	Seed int64
}

// quantize rounds v to 1/res steps; simulation outputs carry limited
// effective precision, which is what makes them compressible.
func quantize(v, res float64) float64 { return math.Round(v*res) / res }

func (c Config) normalize(defFiles, defRows int) Config {
	if c.Files <= 0 {
		c.Files = defFiles
	}
	if c.RowsPerFile <= 0 {
		c.RowsPerFile = defRows
	}
	if c.RowGroupSize <= 0 {
		c.RowGroupSize = 4096
	}
	return c
}

// Dataset is a generated table: object images plus catalog metadata and
// the paper's query over it.
type Dataset struct {
	Name    string
	Table   *metastore.Table
	Objects map[string][]byte
	// Query is the paper's analytical query (Table 2), with FROM <Name>.
	Query string
	// TotalRawBytes is the uncompressed data volume (for reporting).
	TotalRawBytes int64
}

// Register installs the table, assembled by ingest.AssembleTable, under
// the given catalog name.
func (d *Dataset) Register(ms *metastore.Metastore, catalog string) error {
	t := *d.Table
	t.Schema = catalog
	return ms.Register(&t)
}

// Upload stores every object through w: the OCS frontend, a storage node,
// or anything else that takes a Put.
func (d *Dataset) Upload(ctx context.Context, w ingest.ObjectWriter) error {
	for _, key := range d.Table.Objects {
		if err := w.Put(ctx, d.Table.Bucket, key, d.Objects[key]); err != nil {
			return err
		}
	}
	return nil
}

// build writes pages per file through the ingest writer path (one
// writer implementation for generators, INSERT and compaction: object
// images, footer stats, zone maps and NDV sketches all come from
// ingest.ObjectBuilder) and assembles the dataset's table from them.
func build(name, bucket string, cfg Config, schema *types.Schema,
	genFile func(file int, p *column.Page), query string) (*Dataset, error) {

	d := &Dataset{
		Name:    name,
		Objects: make(map[string][]byte, cfg.Files),
		Query:   query,
	}
	var keys []string
	var sealed []ingest.SealedObject
	for f := 0; f < cfg.Files; f++ {
		page := column.NewPage(schema)
		genFile(f, page)
		d.TotalRawBytes += page.ByteSize()
		b := ingest.NewObjectBuilder(schema, parquetlite.WriterOptions{
			Codec:        cfg.Codec,
			RowGroupSize: cfg.RowGroupSize,
		})
		if err := b.AppendPage(page); err != nil {
			return nil, err
		}
		obj, err := b.Seal()
		if err != nil {
			return nil, err
		}
		key := fmt.Sprintf("%s-part-%03d.pql", name, f)
		d.Objects[key] = obj.Image
		keys = append(keys, key)
		sealed = append(sealed, obj)
	}
	t, err := ingest.AssembleTable(ingest.TableSpec{
		Schema:  "default",
		Name:    name,
		Bucket:  bucket,
		Columns: schema,
		Codec:   cfg.Codec,
	}, keys, sealed)
	if err != nil {
		return nil, err
	}
	d.Table = t
	return d, nil
}

// LaghosQuery is the paper's Laghos query (Table 2) with the LANL LIMIT
// extension; aliases make ORDER BY E resolvable, as in the original.
const LaghosQuery = `SELECT min(vertex_id) AS VID, min(x) AS mx, min(y) AS my, min(z) AS mz, avg(e) AS E ` +
	`FROM laghos WHERE x BETWEEN 0.8 AND 3.2 AND y BETWEEN 0.8 AND 3.2 AND z BETWEEN 0.8 AND 3.2 ` +
	`GROUP BY vertex_id ORDER BY E LIMIT 100`

// Laghos generates the fluid-dynamics mesh dataset: 10 columns, vertex
// ids partitioned across files (each file is a mesh subdomain, so the
// per-object zone maps of vertex_id do not overlap and the metastore
// derives it split-disjoint), coordinates uniform in [0,4)³ and
// state fields correlated with position. Default scale: 32 files ×
// 16384 rows (paper: 256 × 4.19M).
func Laghos(cfg Config) (*Dataset, error) {
	cfg = cfg.normalize(32, 16384)
	schema := types.NewSchema(
		types.Column{Name: "vertex_id", Type: types.Int64},
		types.Column{Name: "x", Type: types.Float64},
		types.Column{Name: "y", Type: types.Float64},
		types.Column{Name: "z", Type: types.Float64},
		types.Column{Name: "e", Type: types.Float64},
		types.Column{Name: "rho", Type: types.Float64},
		types.Column{Name: "p", Type: types.Float64},
		types.Column{Name: "vx", Type: types.Float64},
		types.Column{Name: "vy", Type: types.Float64},
		types.Column{Name: "vz", Type: types.Float64},
	)
	// Eight rows per vertex (one per adjacent mesh element), sharing the
	// vertex's coordinates — so the range filter keeps or drops whole
	// vertices, exactly as it does on real mesh dumps, preserving the
	// paper's rows-per-group ratio after filtering.
	verticesPerFile := cfg.RowsPerFile / 8
	if verticesPerFile == 0 {
		verticesPerFile = 1
	}
	gen := func(f int, page *column.Page) {
		rnd := rand.New(rand.NewSource(cfg.Seed + int64(f)*7919))
		base := int64(f) * int64(verticesPerFile)
		// Vertex positions for this subdomain.
		xs := make([]float64, verticesPerFile)
		ys := make([]float64, verticesPerFile)
		zs := make([]float64, verticesPerFile)
		for v := range xs {
			xs[v] = quantize(rnd.Float64()*4, 1e4)
			ys[v] = quantize(rnd.Float64()*4, 1e4)
			zs[v] = quantize(rnd.Float64()*4, 1e4)
		}
		for r := 0; r < cfg.RowsPerFile; r++ {
			v := r % verticesPerFile
			vid := base + int64(v)
			x, y, z := xs[v], ys[v], zs[v]
			e := quantize(100*math.Exp(-((x-2)*(x-2)+(y-2)*(y-2)+(z-2)*(z-2))/2)+rnd.Float64(), 1e4)
			page.AppendRow(
				types.IntValue(vid),
				types.FloatValue(x),
				types.FloatValue(y),
				types.FloatValue(z),
				types.FloatValue(e),
				types.FloatValue(quantize(1+rnd.Float64(), 1e3)),
				types.FloatValue(quantize(e*0.4+rnd.Float64(), 1e3)),
				types.FloatValue(quantize(rnd.NormFloat64(), 1e3)),
				types.FloatValue(quantize(rnd.NormFloat64(), 1e3)),
				types.FloatValue(quantize(rnd.NormFloat64(), 1e3)),
			)
		}
	}
	return build("laghos", "lanl", cfg, schema, gen, LaghosQuery)
}

// DeepWaterQuery is the paper's Deep Water Impact query (Table 2).
const DeepWaterQuery = `SELECT MAX((rowid % 250000) / 500) AS m, timestep ` +
	`FROM deepwater WHERE v02 > 0.1 GROUP BY timestep`

// DeepWater generates the asteroid-impact dataset: 4 columns, one
// timestep per file (each object's timestep zone map is one value, so the
// metastore derives timestep split-disjoint, giving the paper's
// one-group-per-file aggregation), v02 distributed so the paper's filter
// keeps ≈18% of rows. Default scale: 16 files × 65536 rows (paper: 64 ×
// 27M).
func DeepWater(cfg Config) (*Dataset, error) {
	cfg = cfg.normalize(16, 65536)
	schema := types.NewSchema(
		types.Column{Name: "rowid", Type: types.Int64},
		types.Column{Name: "v02", Type: types.Float64},
		types.Column{Name: "v03", Type: types.Float64},
		types.Column{Name: "timestep", Type: types.Int64},
	)
	gen := func(f int, page *column.Page) {
		rnd := rand.New(rand.NewSource(cfg.Seed + int64(f)*104729))
		for r := 0; r < cfg.RowsPerFile; r++ {
			// v02 is a water-fraction-like field: ~82% of cells are
			// exactly-zero background (empty space in the impact
			// simulation — the reason real scientific dumps compress
			// well), the rest quantized values over (0.1, 1].
			v02 := 0.0
			v03 := 0.0
			if rnd.Float64() < 0.18 {
				v02 = quantize(0.1+rnd.Float64()*0.9, 1e4)
				v03 = quantize(rnd.Float64(), 1e3)
			}
			page.AppendRow(
				types.IntValue(int64(r)),
				types.FloatValue(v02),
				types.FloatValue(v03),
				types.IntValue(int64(f)),
			)
		}
	}
	return build("deepwater", "lanl", cfg, schema, gen, DeepWaterQuery)
}

// TPCHQuery is TPC-H Q1 over the generated lineitem table.
const TPCHQuery = `SELECT returnflag, linestatus, ` +
	`SUM(quantity) AS sum_qty, SUM(extendedprice) AS sum_base_price, ` +
	`SUM(extendedprice * (1 - discount)) AS sum_disc_price, ` +
	`SUM(extendedprice * (1 - discount) * (1 + tax)) AS sum_charge, ` +
	`AVG(quantity) AS avg_qty, AVG(extendedprice) AS avg_price, AVG(discount) AS avg_disc, ` +
	`COUNT(*) AS count_order ` +
	`FROM lineitem WHERE shipdate <= DATE '1998-12-01' - INTERVAL '90' DAY ` +
	`GROUP BY returnflag, linestatus ORDER BY returnflag, linestatus`

// TPCH generates the lineitem columns Q1 touches with dbgen-like value
// distributions: shipdate uniform over the 1992–1998 window (the Q1
// filter keeps ≈98% of rows), returnflag/linestatus following the
// dbgen rules (4 populated combinations), quantity 1–50, prices and
// rates in dbgen ranges. Default scale: 8 files × 32768 rows.
// TPCHQ3Query is the Q3-shaped two-table query over lineitem ⋈ orders:
// build-side date filter, equi-join on orderkey, revenue aggregation,
// top-10 by revenue. It exercises the full join path — build stage,
// bloom pushdown into the probe scan, final aggregation.
const TPCHQ3Query = `SELECT l.orderkey AS orderkey, o.orderdate AS orderdate, ` +
	`SUM(l.extendedprice * (1 - l.discount)) AS revenue ` +
	`FROM lineitem AS l JOIN orders AS o ON l.orderkey = o.orderkey ` +
	`WHERE o.orderdate < DATE '1994-01-01' ` +
	`GROUP BY l.orderkey, o.orderdate ORDER BY revenue DESC LIMIT 10`

// TPCHOrders generates the orders columns Q3 touches. Orderkeys are
// 1:1 with the lineitem table generated at the same Config scale (one
// order per lineitem row), so generate both with identical Files ×
// RowsPerFile. Orderdate is uniform over the 1992–1998 window; the Q3
// cutoff of 1994-01-01 keeps ≈29% of orders, which is what gives the
// build-side bloom filter its probe-row reduction.
func TPCHOrders(cfg Config) (*Dataset, error) {
	cfg = cfg.normalize(8, 32768)
	schema := types.NewSchema(
		types.Column{Name: "orderkey", Type: types.Int64},
		types.Column{Name: "orderdate", Type: types.Date},
		types.Column{Name: "orderpriority", Type: types.String},
	)
	startDate, _ := types.DateFromString("1992-01-02")
	endDate, _ := types.DateFromString("1998-12-01")
	window := endDate.I - startDate.I
	priorities := []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	gen := func(f int, page *column.Page) {
		rnd := rand.New(rand.NewSource(cfg.Seed + int64(f)*32452843))
		for r := 0; r < cfg.RowsPerFile; r++ {
			page.AppendRow(
				types.IntValue(int64(f)*int64(cfg.RowsPerFile)+int64(r)),
				types.DateValue(startDate.I+rnd.Int63n(window)),
				types.StringValue(priorities[rnd.Intn(len(priorities))]),
			)
		}
	}
	return build("orders", "tpch", cfg, schema, gen, TPCHQ3Query)
}

func TPCH(cfg Config) (*Dataset, error) {
	cfg = cfg.normalize(8, 32768)
	schema := types.NewSchema(
		types.Column{Name: "orderkey", Type: types.Int64},
		types.Column{Name: "quantity", Type: types.Float64},
		types.Column{Name: "extendedprice", Type: types.Float64},
		types.Column{Name: "discount", Type: types.Float64},
		types.Column{Name: "tax", Type: types.Float64},
		types.Column{Name: "returnflag", Type: types.String},
		types.Column{Name: "linestatus", Type: types.String},
		types.Column{Name: "shipdate", Type: types.Date},
	)
	startDate, _ := types.DateFromString("1992-01-02")
	endDate, _ := types.DateFromString("1998-12-01")
	cutoff, _ := types.DateFromString("1995-06-17") // dbgen's currentdate
	window := endDate.I - startDate.I
	gen := func(f int, page *column.Page) {
		rnd := rand.New(rand.NewSource(cfg.Seed + int64(f)*15485863))
		for r := 0; r < cfg.RowsPerFile; r++ {
			ship := startDate.I + rnd.Int63n(window)
			qty := float64(1 + rnd.Intn(50))
			price := qty * (900 + rnd.Float64()*200)
			// dbgen: linestatus O when shipdate > currentdate, else F.
			// returnflag is N when receiptdate > currentdate (receipt is
			// 1-30 days after ship), else R or A — giving Q1 its four
			// populated (returnflag, linestatus) groups.
			receipt := ship + 1 + rnd.Int63n(30)
			linestatus := "F"
			returnflag := "N"
			if ship > cutoff.I {
				linestatus = "O"
			} else if receipt <= cutoff.I {
				if rnd.Intn(2) == 0 {
					returnflag = "R"
				} else {
					returnflag = "A"
				}
			}
			page.AppendRow(
				types.IntValue(int64(f)*int64(cfg.RowsPerFile)+int64(r)),
				types.FloatValue(qty),
				types.FloatValue(price),
				types.FloatValue(float64(rnd.Intn(11))/100),
				types.FloatValue(float64(rnd.Intn(9))/100),
				types.StringValue(returnflag),
				types.StringValue(linestatus),
				types.DateValue(ship),
			)
		}
	}
	return build("lineitem", "tpch", cfg, schema, gen, TPCHQuery)
}
