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
// plan it is sent with refusal and every later one — a retry — as invalid,
// and counts them.
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

// TestBloomRetryOnlyOnTheCapRefusal: the split is retried without its
// bloom filter when the node refuses the filter for its size
// (rpc.CodeOverLimit), and on no other refusal — in particular not on an
// invalid-plan error whose text happens to mention a bloom filter: errors
// are classified by code, never by message.
func TestBloomRetryOnlyOnTheCapRefusal(t *testing.T) {
	cases := []struct {
		name        string
		refusal     error
		wantRetries int64
	}{
		{"size cap", rpc.WithCode(errors.New("node 0: bloom filter 64 bytes exceeds cap 8"), rpc.CodeOverLimit), 1},
		{"invalid plan naming the filter", rpc.WithCode(errors.New("ocsserver: bad bloom filter: 0 hash functions"), rpc.CodeInvalid), 0},
	}
	for _, tc := range cases {
		client, plans := refusingFrontend(t, tc.refusal)
		conn := New("ocs", metastore.New(), client)
		var stats engine.ScanStats
		_, err := conn.OpenSplit(context.Background(), bloomedHandle(t), engine.Split{Object: "obj"}, true, &stats)
		// Either way the stub serves nothing, so the split fails — as an
		// invalid plan, never degraded to the local replay.
		if !errors.Is(err, rpc.ErrInvalid) {
			t.Errorf("%s: error = %v, want the invalid-plan refusal surfaced", tc.name, err)
		}
		if plans.Load() != 1+tc.wantRetries {
			t.Errorf("%s: %d plans sent, want the first and %d retries", tc.name, plans.Load(), tc.wantRetries)
		}
		snap := stats.Snapshot()
		if snap.JoinBloomRejected != tc.wantRetries || snap.FallbackSplits != 0 {
			t.Errorf("%s: rejected = %d, fallbacks = %d, want %d and 0",
				tc.name, snap.JoinBloomRejected, snap.FallbackSplits, tc.wantRetries)
		}
	}
}
