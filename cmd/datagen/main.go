// Command datagen generates the evaluation datasets and loads them into a
// running ocsd (and optionally objstored) deployment, writing the catalog
// JSON that prestolite consumes.
//
//	datagen -dataset laghos|deepwater|tpch|orders|all -ocs <frontend-addr>
//	        [-objstore <addr>] [-files N] [-rows N] [-codec none|snappy|gzip|zstd]
//	        [-catalog catalog.json] [-seed 42]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"prestocs/internal/compress"
	"prestocs/internal/metastore"
	"prestocs/internal/objstore"
	"prestocs/internal/ocsserver"
	"prestocs/internal/workload"
)

func main() {
	dataset := flag.String("dataset", "all", "laghos, deepwater, tpch, orders or all")
	ocsAddr := flag.String("ocs", "", "OCS frontend address (required)")
	objAddr := flag.String("objstore", "", "plain object store address (optional)")
	files := flag.Int("files", 0, "files per dataset (0 = dataset default)")
	rows := flag.Int("rows", 0, "rows per file (0 = dataset default)")
	codecName := flag.String("codec", "none", "column-chunk codec")
	catalogPath := flag.String("catalog", "catalog.json", "catalog output path")
	seed := flag.Int64("seed", 42, "generation seed")
	flag.Parse()

	if *ocsAddr == "" {
		log.Fatal("datagen: -ocs is required (run ocsd first)")
	}
	codec, err := compress.ParseCodec(*codecName)
	if err != nil {
		log.Fatal(err)
	}
	cfg := workload.Config{Files: *files, RowsPerFile: *rows, Codec: codec, Seed: *seed}

	// "orders" shares the tpch scale/seed so orderkeys align 1:1 with
	// lineitem and the Q3-shaped join has matches.
	gens := map[string]func(workload.Config) (*workload.Dataset, error){
		"laghos":    workload.Laghos,
		"deepwater": workload.DeepWater,
		"tpch":      workload.TPCH,
		"orders":    workload.TPCHOrders,
	}
	names := []string{"laghos", "deepwater", "tpch", "orders"}
	if *dataset != "all" {
		if _, ok := gens[*dataset]; !ok {
			log.Fatalf("datagen: unknown dataset %q", *dataset)
		}
		names = []string{*dataset}
	}

	ocsCli := ocsserver.NewClient(*ocsAddr)
	defer ocsCli.Close()
	var objCli *objstore.Client
	if *objAddr != "" {
		objCli = objstore.NewClient(*objAddr)
		defer objCli.Close()
	}

	ms := metastore.New()
	for _, name := range names {
		d, err := gens[name](cfg)
		if err != nil {
			log.Fatalf("datagen: generating %s: %v", name, err)
		}
		if err := d.Upload(context.Background(), ocsCli); err != nil {
			log.Fatalf("datagen: uploading %s to OCS: %v", name, err)
		}
		if err := d.Register(ms, "ocs"); err != nil {
			log.Fatal(err)
		}
		if objCli != nil {
			if err := d.Upload(context.Background(), objCli); err != nil {
				log.Fatalf("datagen: uploading %s to object store: %v", name, err)
			}
			if err := d.Register(ms, "hive"); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("%s: %d objects, %d rows, %.1f MB stored (%s)\n",
			name, len(d.Table.Objects), d.Table.RowCount,
			float64(d.Table.TotalBytes)/1e6, codec)
	}
	if err := ms.Save(*catalogPath); err != nil {
		log.Fatalf("datagen: writing catalog: %v", err)
	}
	fmt.Printf("catalog written to %s\n", *catalogPath)
}
