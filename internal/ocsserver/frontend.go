package ocsserver

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"slices"
	"sort"

	"prestocs/internal/objstore"
	"prestocs/internal/rpc"
	"prestocs/internal/substrait"
	"prestocs/internal/telemetry"
)

// MethodExecute is the application-facing execute method; the object
// methods the frontend routes are objstore.Method*.
const MethodExecute = "ocs.Execute"

// Frontend is the OCS entry point: it accepts Substrait plans, resolves
// which storage node holds the target object and forwards the plan for
// in-storage execution; results stream back in Arrow format. It also
// routes the object protocol (PUT/GET/LIST/DELETE and the S3 Select
// baseline, SELECT) so applications see one endpoint, as in the paper's hierarchical design: it adds placement
// and nothing else — request bytes reach the owning node unchanged and
// the node's response comes back unchanged. Node calls inherit the
// caller's context deadline and are made once: a node that cannot be
// reached, or answers Unavailable, reaches the client as CodeUnavailable,
// and the client's retry loop (or the connector's fallback, once chunks
// have arrived) takes over.
type Frontend struct {
	rpc   *rpc.Server
	nodes []*rpc.Client

	// StreamWindow bounds unacknowledged chunks per proxied stream toward
	// the application (0 = rpc.DefaultStreamWindow).
	// With the node-side window this chains backpressure end-to-end: a
	// slow application reader stalls the frontend, which stops crediting
	// the node, which pauses the scan. Set before Listen.
	StreamWindow int

	// Metrics receives transport metrics for both the application-facing
	// server and the node-facing clients; Tracer continues traces arriving
	// in request headers. Both are optional and must be set before Listen.
	Metrics *telemetry.Registry
	Tracer  *telemetry.Tracer
}

// NewFrontend connects to the given storage-node addresses. A frontend
// with no storage nodes cannot place or route anything, so zero addresses
// is a configuration error rather than a latent panic in nodeFor.
func NewFrontend(nodeAddrs []string) (*Frontend, error) {
	if len(nodeAddrs) == 0 {
		return nil, fmt.Errorf("ocs: frontend requires at least one storage node")
	}
	f := &Frontend{rpc: rpc.NewServer()}
	for _, addr := range nodeAddrs {
		f.nodes = append(f.nodes, rpc.Dial(addr))
	}
	f.rpc.RegisterStream(MethodExecute, f.handleExecute)
	for _, method := range []string{objstore.MethodPut, objstore.MethodGet, objstore.MethodDelete, objstore.MethodSelect} {
		f.rpc.RegisterStream(method, f.route(method))
	}
	f.rpc.Register(objstore.MethodList, f.handleList)
	return f, nil
}

// Listen binds the frontend's RPC server.
func (f *Frontend) Listen(addr string) (string, error) {
	f.rpc.Metrics = f.Metrics
	f.rpc.Tracer = f.Tracer
	f.rpc.StreamWindow = f.StreamWindow
	for _, n := range f.nodes {
		n.Metrics = f.Metrics
	}
	return f.rpc.Listen(addr)
}

// Close shuts down the frontend and its node connections.
func (f *Frontend) Close() error {
	for _, n := range f.nodes {
		n.Close()
	}
	return f.rpc.Close()
}

// nodeFor places an object: the FNV-1a hash of "bucket/key" over the nodes.
func (f *Frontend) nodeFor(bucket, key string) int {
	h := fnv.New32a()
	h.Write([]byte(bucket + "/" + key))
	return int(h.Sum32() % uint32(len(f.nodes)))
}

// handleExecute validates the plan and forwards it to the nodes holding
// the objects its ReadRel lists. When one node holds them all, the payload
// goes to it unchanged. Otherwise each in-order run of objects that share
// a node goes to that node as the same plan listing just the run, one run
// after the other, and each run's chunks are relayed as they arrive: every
// object ends in its own object-end chunk, so the runs concatenate into
// the one answer the request asked for. A run that fails, before its first
// chunk or after, fails the request there; the connector replays each
// object whose answer did not arrive whole.
func (f *Frontend) handleExecute(ctx context.Context, payload []byte, send func([]byte) error) ([]byte, error) {
	plan, err := substrait.Unmarshal(payload)
	if err != nil {
		return nil, rpc.WithCode(fmt.Errorf("ocs: rejecting plan: %w", err), rpc.CodeInvalid)
	}
	read := readRel(plan)
	if read == nil {
		return nil, rpc.WithCode(fmt.Errorf("ocs: plan has no read relation"), rpc.CodeInvalid)
	}
	objects := read.Objects
	var runs []int // the index in objects at which each run starts
	for i, o := range objects {
		if i == 0 || f.nodeFor(read.Bucket, o) != f.nodeFor(read.Bucket, objects[i-1]) {
			runs = append(runs, i)
		}
	}
	if len(runs) == 1 {
		return f.forward(ctx, f.nodeFor(read.Bucket, objects[0]), NodeMethodExecute, payload, send)
	}
	for r, from := range runs {
		to := len(objects)
		if r+1 < len(runs) {
			to = runs[r+1]
		}
		read.Objects = objects[from:to]
		run, err := substrait.Marshal(plan)
		if err != nil {
			return nil, err
		}
		if _, err := f.forward(ctx, f.nodeFor(read.Bucket, objects[from]), NodeMethodExecute, run, send); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// route is the handler of a keyed object method (Put, Get, Delete,
// Select): the request goes, unchanged, to the node its bucket/key hashes
// to — a Select request carries them in Ref's fields, so DecodeRef places
// it. Every object method is idempotent (Put overwrites, Delete of a
// missing key succeeds, Get and Select only read), so a call whose
// connection died mid-flight is safe to repeat.
func (f *Frontend) route(method string) rpc.StreamHandler {
	return func(ctx context.Context, payload []byte, send func([]byte) error) ([]byte, error) {
		ref, err := objstore.DecodeRef(payload, true)
		if err != nil {
			return nil, err
		}
		return f.forward(ctx, f.nodeFor(ref.Bucket, ref.Key), method, payload, send)
	}
}

// forward makes one call to a node and relays its answer: chunks through
// send as they arrive — the frontend never buffers more than one, so bytes
// reach the engine while the node is still scanning — and the trailer as
// the return value. A failure, before or after the first chunk, is
// returned as it is: the client retries a call that relayed nothing, and
// the connector replays an object whose stream broke.
func (f *Frontend) forward(ctx context.Context, node int, method string, payload []byte, send func([]byte) error) ([]byte, error) {
	ctx, span := telemetry.StartSpan(ctx, "frontend.forward")
	defer span.End()
	span.SetAttr("node", fmt.Sprintf("node%d", node))
	st, err := f.nodes[node].Stream(ctx, method, payload)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	for {
		chunk, err := st.Recv()
		if err == io.EOF {
			return st.Trailer(), nil
		}
		if err != nil {
			return nil, err
		}
		if err := send(chunk); err != nil {
			return nil, err
		}
	}
}

// handleList merges the listings of every node. A bucket exists on a node
// only once an object of it hashed there, so a node answering NotFound
// holds none of the bucket's keys; the bucket is missing only when every
// node says so.
func (f *Frontend) handleList(ctx context.Context, payload []byte) ([]byte, error) {
	ref, err := objstore.DecodeRef(payload, false)
	if err != nil {
		return nil, err
	}
	var keys []string
	found := false
	for _, n := range f.nodes {
		resp, err := n.Call(ctx, objstore.MethodList, payload)
		if errors.Is(err, rpc.ErrNotFound) {
			continue
		}
		if err != nil {
			return nil, err
		}
		found = true
		part, err := objstore.DecodeKeys(resp)
		if err != nil {
			return nil, err
		}
		keys = append(keys, part...)
	}
	if !found {
		return nil, rpc.WithCode(fmt.Errorf("ocs: no such bucket %q", ref.Bucket), rpc.CodeNotFound)
	}
	sort.Strings(keys)
	return objstore.EncodeKeys(slices.Compact(keys)), nil
}
