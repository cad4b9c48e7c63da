// Command ocsd runs an OCS deployment: N storage nodes plus the frontend
// that applications (and the Presto-OCS connector) talk to.
//
//	ocsd [-listen 127.0.0.1:7app] [-nodes 1] [-node-listen 127.0.0.1:0]
//	     [-metrics-listen 127.0.0.1:9741]
//	     [-footer-cache-bytes 8388608] [-page-cache-bytes 67108864]
//	     [-scan-pool 0] [-stream-window 8]
//
// The frontend address is printed on startup; pass it to prestolite via
// -ocs, or to examples via OCS_ADDR. With -metrics-listen, a debug HTTP
// server exposes /metrics (every component counts into one registry) and
// /debug/traces (spans merged across the frontend and all nodes, so each
// query shows as one connected trace). ocsd runs until interrupted.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"prestocs/internal/ocsserver"
	"prestocs/internal/scan"
	"prestocs/internal/telemetry"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:9740", "frontend listen address")
	nodes := flag.Int("nodes", 1, "storage node count")
	nodeListen := flag.String("node-listen", "127.0.0.1:0", "storage node listen address pattern (port 0 = ephemeral)")
	metricsListen := flag.String("metrics-listen", "", "debug HTTP address for /metrics and /debug/traces (empty = disabled)")
	footerCacheBytes := flag.Int64("footer-cache-bytes", scan.DefaultFooterCacheBytes, "per-node decoded-footer cache budget (0 disables)")
	pageCacheBytes := flag.Int64("page-cache-bytes", scan.DefaultPageCacheBytes, "per-node hot-page cache budget (0 disables)")
	scanPool := flag.Int("scan-pool", 0, "per-node scan pool: row-group reads run at once across all queries (0 = storage-node core count)")
	streamWindow := flag.Int("stream-window", 0, "per-stream credit window in chunks (0 = default)")
	flag.Parse()

	if *nodes <= 0 {
		log.Fatal("ocsd: -nodes must be positive")
	}
	var reg *telemetry.Registry
	tracers := map[string]*telemetry.Tracer{}
	if *metricsListen != "" {
		reg = telemetry.NewRegistry()
	}
	var nodeAddrs []string
	var storageNodes []*ocsserver.StorageNode
	for i := 0; i < *nodes; i++ {
		node := ocsserver.NewStorageNode(i)
		node.Caches = scan.NewCaches(*footerCacheBytes, *pageCacheBytes)
		node.ScanPool = *scanPool
		node.StreamWindow = *streamWindow
		if reg != nil {
			node.Metrics = reg
			node.Tracer = telemetry.NewTracer(0)
			tracers[fmt.Sprintf("node%d", i)] = node.Tracer
		}
		addr, err := node.Listen(*nodeListen)
		if err != nil {
			log.Fatalf("ocsd: storage node %d: %v", i, err)
		}
		fmt.Printf("storage node %d listening on %s\n", i, addr)
		nodeAddrs = append(nodeAddrs, addr)
		storageNodes = append(storageNodes, node)
	}
	frontend, err := ocsserver.NewFrontend(nodeAddrs)
	if err != nil {
		log.Fatalf("ocsd: frontend: %v", err)
	}
	frontend.StreamWindow = *streamWindow
	if reg != nil {
		frontend.Metrics = reg
		frontend.Tracer = telemetry.NewTracer(0)
		tracers["frontend"] = frontend.Tracer
	}
	addr, err := frontend.Listen(*listen)
	if err != nil {
		log.Fatalf("ocsd: frontend: %v", err)
	}
	fmt.Printf("OCS frontend listening on %s (%d storage nodes)\n", addr, *nodes)
	if reg != nil {
		mAddr, stop, err := telemetry.Serve(*metricsListen, reg, tracers)
		if err != nil {
			log.Fatalf("ocsd: metrics: %v", err)
		}
		defer stop()
		fmt.Printf("metrics on http://%s/metrics, traces on http://%s/debug/traces\n", mAddr, mAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	frontend.Close()
	for _, n := range storageNodes {
		n.Close()
	}
}
