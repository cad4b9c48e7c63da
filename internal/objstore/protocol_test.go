package objstore_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"prestocs/internal/column"
	"prestocs/internal/expr"
	"prestocs/internal/objstore"
	"prestocs/internal/ocsserver"
	"prestocs/internal/parquetlite"
	"prestocs/internal/rpc"
	"prestocs/internal/substrait"
	"prestocs/internal/telemetry"
	"prestocs/internal/types"
)

// objectServer is one implementation of the object protocol under test:
// where it listens and, when it is made of OCS storage nodes, those nodes
// and the registry their cache gauges report to.
type objectServer struct {
	name  string
	addr  string
	nodes []*ocsserver.StorageNode
	reg   *telemetry.Registry
}

// objectServers starts the three servers that mount the object methods: a
// bare objstore.Server, one StorageNode addressed directly, and a Frontend
// sharding over three nodes.
func objectServers(t *testing.T) []objectServer {
	t.Helper()
	srv := objstore.NewServer(objstore.NewStore())
	srvAddr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	nodeReg := telemetry.NewRegistry()
	node := ocsserver.NewStorageNode(0)
	node.Metrics = nodeReg
	nodeAddr, err := node.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })

	clusterReg := telemetry.NewRegistry()
	cluster, err := ocsserver.StartClusterWith(3, ocsserver.ClusterConfig{Metrics: clusterReg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Shutdown)

	return []objectServer{
		{name: "objstore.Server", addr: srvAddr},
		{name: "StorageNode", addr: nodeAddr, nodes: []*ocsserver.StorageNode{node}, reg: nodeReg},
		{name: "Frontend3Nodes", addr: cluster.Addr, nodes: cluster.Nodes, reg: clusterReg},
	}
}

// The conformance vectors: the objects the steps below put, and the two
// buckets — one the steps fill, one no server ever sees. The fuzz targets
// seed their corpora from the messages these encode to.
const (
	bucket  = "bkt"
	missing = "never-put"
)

var objects = map[string][]byte{
	"a/0": []byte("zero"),
	"a/1": []byte("one"),
	"b/2": {},
	"c/3": bytes.Repeat([]byte{0x00, 0xff, 0x7f, 0x80}, 1024),
}

// step is one call of the conformance sequence and what it must answer:
// want (compared when non-nil) or an error matching wantErr.
type step struct {
	name    string
	call    func(ctx context.Context, c *objstore.Client) (any, error)
	want    any
	wantErr error
}

func put(b, k string, data []byte) func(context.Context, *objstore.Client) (any, error) {
	return func(ctx context.Context, c *objstore.Client) (any, error) { return nil, c.Put(ctx, b, k, data) }
}

// get answers the object's bytes as a string, after checking the work
// stats say exactly those bytes were read.
func get(b, k string) func(context.Context, *objstore.Client) (any, error) {
	return func(ctx context.Context, c *objstore.Client) (any, error) {
		data, st, err := c.Get(ctx, b, k)
		if err != nil {
			return nil, err
		}
		if want := (objstore.WorkStats{BytesRead: int64(len(data))}); st != want {
			return nil, errors.New("get work stats do not match the bytes returned")
		}
		return string(data), nil
	}
}

func list(b, prefix string) func(context.Context, *objstore.Client) (any, error) {
	return func(ctx context.Context, c *objstore.Client) (any, error) { return c.List(ctx, b, prefix) }
}

func del(b, k string) func(context.Context, *objstore.Client) (any, error) {
	return func(ctx context.Context, c *objstore.Client) (any, error) { return nil, c.Delete(ctx, b, k) }
}

// conformance is run in order against a fresh server; later steps see the
// state earlier ones left.
var conformance = []step{
	{name: "put a/1", call: put(bucket, "a/1", objects["a/1"])},
	{name: "put c/3", call: put(bucket, "c/3", objects["c/3"])},
	{name: "put b/2 (empty object)", call: put(bucket, "b/2", objects["b/2"])},
	{name: "put a/0", call: put(bucket, "a/0", objects["a/0"])},
	{name: "get", call: get(bucket, "a/1"), want: "one"},
	{name: "get empty object", call: get(bucket, "b/2"), want: ""},
	{name: "get binary object", call: get(bucket, "c/3"), want: string(objects["c/3"])},
	{name: "overwrite", call: put(bucket, "a/1", []byte("uno!"))},
	{name: "get after overwrite", call: get(bucket, "a/1"), want: "uno!"},
	{name: "list all, sorted", call: list(bucket, ""), want: []string{"a/0", "a/1", "b/2", "c/3"}},
	{name: "list prefix, sorted", call: list(bucket, "a/"), want: []string{"a/0", "a/1"}},
	{name: "list prefix matching nothing", call: list(bucket, "zzz"), want: []string(nil)},
	{name: "delete", call: del(bucket, "a/1")},
	{name: "delete again", call: del(bucket, "a/1")},
	{name: "delete in a bucket never seen", call: del(missing, "k")},
	{name: "get after delete", call: get(bucket, "a/1"), wantErr: rpc.ErrNotFound},
	{name: "list after delete", call: list(bucket, "a/"), want: []string{"a/0"}},
	{name: "get from a bucket never seen", call: get(missing, "k"), wantErr: rpc.ErrNotFound},
	{name: "list a bucket never seen", call: list(missing, ""), wantErr: rpc.ErrNotFound},
	{name: "put without bucket", call: put("", "k", []byte("x")), wantErr: rpc.ErrInvalid},
	{name: "get without bucket", call: get("", "k"), wantErr: rpc.ErrInvalid},
	{name: "list without bucket", call: list("", "a/"), wantErr: rpc.ErrInvalid},
	{name: "delete without bucket", call: del("", "k"), wantErr: rpc.ErrInvalid},
	{name: "put without key", call: put(bucket, "", []byte("x")), wantErr: rpc.ErrInvalid},
	{name: "get without key", call: get(bucket, ""), wantErr: rpc.ErrInvalid},
	{name: "delete without key", call: del(bucket, ""), wantErr: rpc.ErrInvalid},
	{name: "rejected calls changed nothing", call: list(bucket, ""), want: []string{"a/0", "b/2", "c/3"}},
}

// TestObjectProtocolConformance runs the one client against every server of
// the object protocol: the same calls must give the same answers and the
// same error codes whether the server is the plain object store, a storage
// node or the sharding frontend.
func TestObjectProtocolConformance(t *testing.T) {
	ctx := context.Background()
	for _, srv := range objectServers(t) {
		t.Run(srv.name, func(t *testing.T) {
			cli := objstore.NewClient(srv.addr)
			defer cli.Close()
			for _, s := range conformance {
				got, err := s.call(ctx, cli)
				switch {
				case s.wantErr != nil:
					if !errors.Is(err, s.wantErr) {
						t.Errorf("%s: error %v, want %v", s.name, err, s.wantErr)
					}
				case err != nil:
					t.Errorf("%s: %v", s.name, err)
				case s.want != nil && !reflect.DeepEqual(got, s.want):
					t.Errorf("%s: got %q, want %q", s.name, got, s.want)
				}
			}

			// Bytes that are not a request message are refused as invalid
			// by every method, and the server goes on serving.
			raw := rpc.Dial(srv.addr)
			defer raw.Close()
			for _, method := range []string{objstore.MethodPut, objstore.MethodGet, objstore.MethodList, objstore.MethodDelete} {
				for _, payload := range malformedRequests {
					if _, err := raw.Call(ctx, method, payload); !errors.Is(err, rpc.ErrInvalid) {
						t.Errorf("%s(% x): error %v, want %v", method, payload, err, rpc.ErrInvalid)
					}
				}
			}
			if keys, err := cli.List(ctx, bucket, "a/"); err != nil || len(keys) != 1 {
				t.Errorf("list after malformed requests = %v, %v", keys, err)
			}

			if srv.nodes != nil {
				testMutationDropsNodeCaches(t, srv, cli)
			}
		})
	}
}

// malformedRequests do not parse as a request message: a truncated varint
// tag, field number 0, an unsupported wire type, a bucket whose declared
// length runs past the payload, and a well-formed bucket followed by a
// truncated key.
var malformedRequests = [][]byte{
	{0x80},
	{0x00, 0x01},
	{0x0b},
	{0x0a, 0xff, 0xff, 0xff, 0xff, 0x0f, 'b'},
	{0x0a, 0x01, 'b', 0x12, 0x05, 'k'},
}

// testMutationDropsNodeCaches checks what a storage node adds to Put and
// Delete: the footer and the decoded pages an execute cached for an object
// are released as soon as the object is overwritten or deleted, whichever
// server the mutation came through.
func testMutationDropsNodeCaches(t *testing.T, srv objectServer, cli *objstore.Client) {
	t.Helper()
	ctx := context.Background()
	const key = "table.pql"
	schema := types.NewSchema(types.Column{Name: "x", Type: types.Int64})
	image := func(v int64) []byte {
		page := column.NewPage(schema)
		for i := 0; i < 64; i++ {
			page.AppendRow(types.IntValue(v))
		}
		img, err := parquetlite.WritePages(schema, parquetlite.WriterOptions{RowGroupSize: 16}, page)
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	cond, err := expr.NewCompare(expr.Ge, expr.Col(0, "x", types.Int64), expr.Lit(types.IntValue(0)))
	if err != nil {
		t.Fatal(err)
	}
	plan := substrait.NewPlan(&substrait.FilterRel{
		Input:     &substrait.ReadRel{Bucket: bucket, Object: key, BaseSchema: schema},
		Condition: cond,
	})

	// cached reports the footer and page bytes the owning node holds.
	var owner *ocsserver.StorageNode
	cached := func() (footer, pages int64) {
		footer = srv.reg.GaugeValue(telemetry.MetricFooterCacheBytes, "node", fmt.Sprintf("node%d", owner.ID))
		return footer, owner.Caches.Pages().Bytes()
	}
	// warm executes the plan on the owning node until its caches hold the
	// object (pages are admitted on their second touch).
	warm := func() {
		t.Helper()
		owner = nil
		for _, n := range srv.nodes {
			if n.Store().Size(bucket, key) >= 0 {
				owner = n
			}
		}
		if owner == nil {
			t.Fatal("no node holds the object")
		}
		for i := 0; i < 3; i++ {
			if _, _, err := ocsserver.ExecuteLocalCached(owner.Store(), plan, 1, owner.Caches); err != nil {
				t.Fatal(err)
			}
		}
		if footer, pages := cached(); footer == 0 || pages == 0 {
			t.Fatalf("caches not warm: footer %d bytes, pages %d bytes", footer, pages)
		}
	}

	if err := cli.Put(ctx, bucket, key, image(1)); err != nil {
		t.Fatal(err)
	}
	warm()
	if err := cli.Put(ctx, bucket, key, image(2)); err != nil {
		t.Fatal(err)
	}
	if footer, pages := cached(); footer != 0 || pages != 0 {
		t.Errorf("after overwrite: footer %d bytes, pages %d bytes still cached", footer, pages)
	}
	warm()
	if err := cli.Delete(ctx, bucket, key); err != nil {
		t.Fatal(err)
	}
	if footer, pages := cached(); footer != 0 || pages != 0 {
		t.Errorf("after delete: footer %d bytes, pages %d bytes still cached", footer, pages)
	}
}

// fuzzSeeds are the wire messages of the conformance vectors: every
// request, Get response and List response the sequence above exchanges,
// plus the malformed requests.
func fuzzSeeds() [][]byte {
	seeds := append([][]byte{nil}, malformedRequests...)
	var keys []string
	for k, data := range objects {
		keys = append(keys, k)
		seeds = append(seeds,
			objstore.EncodeRef(objstore.Ref{Bucket: bucket, Key: k, Data: data}),
			objstore.EncodeRef(objstore.Ref{Bucket: bucket, Key: k}),
			objstore.EncodeDataStats(data, objstore.WorkStats{BytesRead: int64(len(data)), CPUUnits: 1.5}))
	}
	return append(seeds,
		objstore.EncodeRef(objstore.Ref{Bucket: missing}),
		objstore.EncodeRef(objstore.Ref{Key: "k"}),
		objstore.EncodeKeys(keys),
		objstore.EncodeKeys(nil))
}

// FuzzDecodeRef: a request decoder reads bytes from any client. It may
// refuse them — always as CodeInvalid — but must not panic, and what it
// accepts is backed by the payload and survives a re-encode.
func FuzzDecodeRef(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s, true)
		f.Add(s, false)
	}
	f.Fuzz(func(t *testing.T, in []byte, needKey bool) {
		r, err := objstore.DecodeRef(in, needKey)
		if err != nil {
			if !errors.Is(err, rpc.ErrInvalid) {
				t.Fatalf("rejection is not CodeInvalid: %v", err)
			}
			return
		}
		if r.Bucket == "" || (needKey && r.Key == "") {
			t.Fatalf("accepted %+v", r)
		}
		if len(r.Bucket)+len(r.Key)+len(r.Data) > len(in) {
			t.Fatalf("%d input bytes decoded to %d", len(in), len(r.Bucket)+len(r.Key)+len(r.Data))
		}
		again, err := objstore.DecodeRef(objstore.EncodeRef(r), needKey)
		if err != nil || again.Bucket != r.Bucket || again.Key != r.Key || !bytes.Equal(again.Data, r.Data) {
			t.Fatalf("re-encode of %+v decoded to %+v, %v", r, again, err)
		}
	})
}

// FuzzDecodeDataStats: the Get response decoder reads bytes from a server.
func FuzzDecodeDataStats(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		data, st, err := objstore.DecodeDataStats(in)
		if err != nil {
			return
		}
		if len(data) > len(in) {
			t.Fatalf("%d input bytes decoded to %d", len(in), len(data))
		}
		again, st2, err := objstore.DecodeDataStats(objstore.EncodeDataStats(data, st))
		// NaN CPU units compare unequal to themselves; compare the encodings.
		if err != nil || !bytes.Equal(again, data) || !bytes.Equal(objstore.EncodeStats(st2), objstore.EncodeStats(st)) {
			t.Fatalf("re-encode of (%d bytes, %+v) decoded to (%d bytes, %+v), %v", len(data), st, len(again), st2, err)
		}
	})
}

// FuzzDecodeKeys: the List response decoder reads bytes from a server (the
// frontend reads them from every node).
func FuzzDecodeKeys(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		keys, err := objstore.DecodeKeys(in)
		if err != nil {
			return
		}
		// Every key costs at least its tag and length byte on the wire.
		if total := 2 * len(keys); total > len(in) {
			t.Fatalf("%d input bytes decoded to %d keys", len(in), len(keys))
		}
		again, err := objstore.DecodeKeys(objstore.EncodeKeys(keys))
		if err != nil || !reflect.DeepEqual(again, keys) {
			t.Fatalf("re-encode of %q decoded to %q, %v", keys, again, err)
		}
	})
}
