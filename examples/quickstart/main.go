// Quickstart: stand up the full Presto-OCS topology in-process, load a
// tiny dataset, and run one SQL query under two pushdown configurations,
// printing results and data movement.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	ocsconn "prestocs/internal/connector/ocs"
	"prestocs/internal/engine"
	"prestocs/internal/harness"
	"prestocs/internal/workload"
)

func main() {
	// One OCS storage node + frontend + object store + engine, all over
	// loopback TCP.
	cluster, err := harness.StartCluster(1)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	// A small Laghos-like mesh: 4 objects × 4096 rows.
	dataset, err := workload.Laghos(workload.Config{Files: 4, RowsPerFile: 4096, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	if err := cluster.Load(dataset); err != nil {
		log.Fatal(err)
	}

	query := `SELECT vertex_id, avg(e) AS mean_e, count(*) AS n
	          FROM laghos
	          WHERE x BETWEEN 1.0 AND 3.0
	          GROUP BY vertex_id
	          ORDER BY mean_e DESC LIMIT 5`

	for _, mode := range []string{"none", "all"} {
		session := engine.NewSession().Set(ocsconn.SessionPushdown, mode)
		q, err := cluster.Engine.Submit(context.Background(), query, engine.WithSession(session))
		if err != nil {
			log.Fatal(err)
		}
		res, err := q.Result()
		if err != nil {
			log.Fatal(err)
		}
		scan := res.Stats.Scan.Snapshot()
		fmt.Printf("--- pushdown=%s ---\n", mode)
		fmt.Printf("pushed operators: %v\n", res.Stats.PushedDown)
		fmt.Printf("data moved: %d bytes over %d splits\n", scan.BytesMoved, res.Stats.Splits)
		fmt.Printf("%v\n", res.Schema)
		for i := 0; i < res.Page.NumRows(); i++ {
			row := res.Page.Row(i)
			fmt.Printf("  vertex=%v  mean_e=%.3f  n=%v\n", row[0], row[1].F, row[2])
		}
	}
	fmt.Println("\nSame answers, orders of magnitude less data moved with pushdown.")
}
