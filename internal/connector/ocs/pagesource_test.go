package ocs

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"prestocs/internal/bloom"
	"prestocs/internal/engine"
	"prestocs/internal/expr"
	"prestocs/internal/metastore"
	"prestocs/internal/ocsserver"
	"prestocs/internal/rpc"
	"prestocs/internal/types"
)

// refusingFrontend stands in for an OCS frontend that answers the first
// plan it is sent with refusal and every later one as invalid, and counts
// them.
func refusingFrontend(t *testing.T, refusal error) (*ocsserver.Client, *atomic.Int64) {
	t.Helper()
	plans := new(atomic.Int64)
	srv := rpc.NewServer()
	srv.RegisterStream(ocsserver.MethodExecute, func(context.Context, []byte, func([]byte) error) ([]byte, error) {
		if plans.Add(1) == 1 {
			return nil, refusal
		}
		return nil, rpc.WithCode(errors.New("stub: no plan is served here"), rpc.CodeInvalid)
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := ocsserver.NewClient(addr)
	t.Cleanup(func() {
		client.Close()
		srv.Close()
	})
	return client, plans
}

// bloomedHandle is a filter pushdown over statsTable with a join bloom
// attached on g.
func bloomedHandle(t *testing.T) *Handle {
	t.Helper()
	table := statsTable()
	table.Bucket, table.Objects = "b", []string{"obj"}
	cond, err := expr.NewCompare(expr.Gt, expr.Col(0, "v", types.Float64), expr.Lit(types.FloatValue(1)))
	if err != nil {
		t.Fatal(err)
	}
	filter := bloom.New(16, bloom.DefaultBitsPerKey)
	filter.AddHash(bloom.HashInt64(7))
	h, ok := (&Handle{Table: table, Push: &Pushdown{Filter: cond}}).WithJoinBloom(1, filter, 1)
	if !ok {
		t.Fatal("WithJoinBloom declined a filter-only handle")
	}
	return h.(*Handle)
}

// TestBloomRetryOnlyOnTheCapRefusal: a plan carrying a bloom filter is
// sent once. The filter fits every node by construction (bloom.MaxBytes),
// so no refusal reopens the split without it — in particular not an
// invalid-plan error whose text happens to mention a bloom filter — and
// none degrades the split to the local replay.
func TestBloomRetryOnlyOnTheCapRefusal(t *testing.T) {
	refusal := rpc.WithCode(errors.New("ocsserver: bad bloom filter: 0 hash functions"), rpc.CodeInvalid)
	client, plans := refusingFrontend(t, refusal)
	conn := New("ocs", metastore.New(), client)
	var stats engine.ScanStats
	_, err := conn.CreatePageSources(context.Background(), bloomedHandle(t), []engine.Split{{Object: "obj"}}, &stats)
	if !errors.Is(err, rpc.ErrInvalid) {
		t.Errorf("error = %v, want the invalid-plan refusal surfaced", err)
	}
	if plans.Load() != 1 {
		t.Errorf("%d plans sent, want 1", plans.Load())
	}
	if snap := stats.Snapshot(); snap.FallbackSplits != 0 {
		t.Errorf("fallbacks = %d, want 0", snap.FallbackSplits)
	}
}
