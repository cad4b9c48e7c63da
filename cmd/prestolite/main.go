// Command prestolite is the SQL CLI: a single-process coordinator+worker
// engine wired to an OCS frontend (ocs catalog) and optionally a plain
// object store (hive catalog), using the catalog JSON datagen wrote.
//
//	prestolite -catalog catalog.json -ocs <frontend-addr> [-objstore <addr>]
//	           [-pushdown always|never|filter|...|auto] [-explain] [-profile]
//	           [-meta-cache-tables 1024] [-metrics-listen :9280]
//	           [-max-queries N] [-queue N] [-memory-budget BYTES]
//	           [-ingest [-ingest-flush-rows N] [-compact-interval 30s]]
//	           "SELECT ..."
//
// -ingest enables the write path: INSERT INTO ... VALUES statements
// buffer rows through the ingest package into parquetlite objects with
// fresh zone maps, committed to the metastore (and persisted back to the
// catalog JSON) before the statement returns. -compact-interval starts a
// background compactor that merges small objects and re-sorts them by
// the clustering key; in-flight queries keep their pinned snapshot.
//
// Without a query argument it reads statements from stdin, one per line.
// -profile prints an EXPLAIN ANALYZE-style per-query trace after each
// statement: the engine-side span tree with stage timings (plan analysis,
// Substrait generation, stream open, transfer wait, Arrow deserialize)
// plus retry and fallback events.
//
// -metrics-listen serves /metrics, /debug/traces and /debug/queries (the
// live process list). Two client modes act on a running prestolite's
// debug port and exit:
//
//	prestolite -queries host:port        # list live + recent queries
//	prestolite -kill q-3 -debug host:port
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"prestocs/internal/cache"
	"prestocs/internal/connector/hive"
	ocsconn "prestocs/internal/connector/ocs"
	"prestocs/internal/engine"
	"prestocs/internal/ingest"
	"prestocs/internal/metastore"
	"prestocs/internal/objstore"
	"prestocs/internal/ocsserver"
	"prestocs/internal/telemetry"
)

func main() {
	catalogPath := flag.String("catalog", "catalog.json", "catalog JSON written by datagen")
	ocsAddr := flag.String("ocs", "", "OCS frontend address (required)")
	objAddr := flag.String("objstore", "", "plain object store address (optional, enables hive catalog)")
	pushdown := flag.String("pushdown", "all", "ocs pushdown mode: always/all, never/none, filter, ..., or auto (per-split adaptive: selectivity history + storage-load feedback decide pushdown vs raw per split)")
	explain := flag.Bool("explain", false, "print the optimized plan before results")
	profile := flag.Bool("profile", false, "print a per-query trace profile after each statement")
	metaCacheTables := flag.Int("meta-cache-tables", cache.DefaultTableCacheEntries, "table-metadata cache entries per catalog (0 disables)")
	metricsListen := flag.String("metrics-listen", "", "serve /metrics, /debug/traces and /debug/queries on this address")
	ingestMode := flag.Bool("ingest", false, "enable the write path: INSERT statements buffer rows into parquetlite objects on the ocs catalog")
	flushRows := flag.Int("ingest-flush-rows", 0, "ingest: rows buffered per table before an object is sealed (0 = default)")
	compactEvery := flag.Duration("compact-interval", 0, "ingest: background compaction interval over ocs tables (0 disables)")
	maxQueries := flag.Int("max-queries", 0, "admission: max concurrently executing queries (0 = unlimited)")
	maxQueued := flag.Int("queue", 0, "admission: max queries queued once saturated (0 = shed immediately)")
	memBudget := flag.Int64("memory-budget", 0, "admission: total query-memory budget in bytes (0 = unlimited)")
	queriesAt := flag.String("queries", "", "client mode: list queries at a running prestolite's debug address and exit")
	killID := flag.String("kill", "", "client mode: kill the given query id at -debug and exit")
	debugAddr := flag.String("debug", "localhost:9280", "debug address -kill targets")
	flag.Parse()

	if *queriesAt != "" {
		debugGet(*queriesAt)
		return
	}
	if *killID != "" {
		debugKill(*debugAddr, *killID)
		return
	}
	if *ocsAddr == "" {
		log.Fatal("prestolite: -ocs is required")
	}
	ms, err := metastore.Load(*catalogPath)
	if err != nil {
		log.Fatalf("prestolite: loading catalog: %v", err)
	}

	eng := engine.New()
	eng.DefaultCatalog = "ocs"
	eng.SetAdmission(engine.AdmissionConfig{
		MaxConcurrent: *maxQueries,
		MaxQueued:     *maxQueued,
		MemoryBudget:  *memBudget,
	})
	var ocsOpts []ocsserver.Option
	if *profile || *metricsListen != "" {
		eng.Tracer = telemetry.NewTracer(0)
		eng.Metrics = telemetry.NewRegistry()
		ocsOpts = append(ocsOpts, ocsserver.WithMetrics(eng.Metrics))
	}
	ocsCli := ocsserver.NewClient(*ocsAddr, ocsOpts...)
	defer ocsCli.Close()
	conn := ocsconn.New("ocs", ms, ocsCli)
	conn.SetTableCacheEntries(*metaCacheTables)
	eng.AddConnector(conn)
	eng.AddEventListener(conn.Policy())
	if *profile || *metricsListen != "" {
		conn.SetMetrics(eng.Metrics)
	}
	if *ingestMode {
		ing := ingest.NewIngester(ms, ocsCli, ingest.Options{
			FlushRows: *flushRows,
			Telemetry: eng.Metrics,
		})
		conn.AttachIngester(ing)
		// Persist catalog changes (new objects, compactions) on exit so a
		// restarted prestolite sees the ingested data.
		defer func() {
			if err := ms.Save(*catalogPath); err != nil {
				fmt.Fprintf(os.Stderr, "prestolite: saving catalog: %v\n", err)
			}
		}()
		if *compactEvery > 0 {
			comp := ingest.NewCompactor(ms, ocsCli, ingest.CompactorOptions{Telemetry: eng.Metrics})
			for _, qn := range ms.List() {
				schema, name, ok := strings.Cut(qn, ".")
				if !ok || schema != "ocs" {
					continue
				}
				comp.Start(context.Background(), schema, name, *compactEvery)
			}
			defer comp.Stop()
		}
	}
	if *objAddr != "" {
		objCli := objstore.NewClient(*objAddr)
		defer objCli.Close()
		hiveConn := hive.New("hive", ms, objCli)
		hiveConn.SetTableCacheEntries(*metaCacheTables)
		if *profile || *metricsListen != "" {
			hiveConn.SetMetrics(eng.Metrics)
		}
		eng.AddConnector(hiveConn)
	}
	if *metricsListen != "" {
		tracers := map[string]*telemetry.Tracer{"engine": eng.Tracer}
		bound, stop, err := telemetry.Serve(*metricsListen, eng.Metrics, tracers,
			telemetry.Endpoint{Pattern: "/debug/queries", Handler: eng.Processes()})
		if err != nil {
			log.Fatalf("prestolite: -metrics-listen: %v", err)
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "prestolite: debug endpoints on http://%s (/metrics /debug/traces /debug/queries)\n", bound)
	}

	run := func(sql string) {
		sql = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(sql), ";"))
		if sql == "" {
			return
		}
		if word := strings.ToUpper(strings.Fields(sql)[0]); word == "INSERT" {
			res, err := eng.Ingest(context.Background(), sql)
			if err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
				return
			}
			fmt.Printf("-- inserted %d rows into %s.%s in %v (queryable)\n",
				res.Rows, res.Catalog, res.Table, res.Duration.Round(time.Millisecond))
			if err := ms.Save(*catalogPath); err != nil {
				fmt.Fprintf(os.Stderr, "prestolite: saving catalog: %v\n", err)
			}
			return
		}
		session := engine.NewSession().Set(ocsconn.SessionPushdown, *pushdown)
		start := time.Now()
		q, err := eng.Submit(context.Background(), sql, engine.WithSession(session))
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			return
		}
		res, err := q.Result()
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			return
		}
		if *explain {
			fmt.Println(res.Stats.PlanText)
		}
		printResult(res)
		scan := res.Stats.Scan.Snapshot()
		fmt.Printf("-- %d rows in %v; pushed=%v; moved=%d bytes over %d splits\n",
			res.Page.NumRows(), time.Since(start).Round(time.Millisecond),
			res.Stats.PushedDown, scan.BytesMoved, res.Stats.Splits)
		if *profile && res.Stats.TraceID != 0 {
			telemetry.RenderTrace(os.Stdout, eng.Tracer.TraceSpans(res.Stats.TraceID))
		}
	}

	if flag.NArg() > 0 {
		run(strings.Join(flag.Args(), " "))
		return
	}
	fmt.Println("prestolite: enter SQL, one statement per line (ctrl-D to exit)")
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("sql> ")
		if !scanner.Scan() {
			break
		}
		run(scanner.Text())
	}
}

// debugGet prints a running prestolite's /debug/queries text listing.
func debugGet(addr string) {
	resp, err := http.Get("http://" + addr + "/debug/queries")
	if err != nil {
		log.Fatalf("prestolite: -queries: %v", err)
	}
	defer resp.Body.Close()
	io.Copy(os.Stdout, resp.Body)
}

// debugKill asks a running prestolite to cancel one query.
func debugKill(addr, id string) {
	resp, err := http.Post("http://"+addr+"/debug/queries?kill="+id, "", nil)
	if err != nil {
		log.Fatalf("prestolite: -kill: %v", err)
	}
	defer resp.Body.Close()
	io.Copy(os.Stdout, resp.Body)
	if resp.StatusCode != http.StatusOK {
		os.Exit(1)
	}
}

func printResult(res *engine.Result) {
	names := res.Schema.Names()
	fmt.Println(strings.Join(names, " | "))
	n := res.Page.NumRows()
	const maxRows = 100
	for i := 0; i < n && i < maxRows; i++ {
		row := res.Page.Row(i)
		parts := make([]string, len(row))
		for c, v := range row {
			parts[c] = v.String()
		}
		fmt.Println(strings.Join(parts, " | "))
	}
	if n > maxRows {
		fmt.Printf("... (%d more rows)\n", n-maxRows)
	}
}
