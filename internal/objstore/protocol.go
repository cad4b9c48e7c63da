package objstore

import (
	"context"
	"fmt"

	"prestocs/internal/protowire"
	"prestocs/internal/rpc"
)

// Method names of the object protocol. Every server that holds or routes
// objects serves these five — ocsserver.StorageNode mounts them (Mount)
// and ocsserver.Frontend routes them — so one Client speaks to both.
// MethodSelect is the S3 Select baseline: filter-only, CSV out.
const (
	MethodGet    = "obj.Get"
	MethodPut    = "obj.Put"
	MethodList   = "obj.List"
	MethodDelete = "obj.Delete"
	MethodSelect = "obj.Select"
)

// Ref is the request message of Put, Get, List and Delete: bucket (field
// 1), key — the prefix for List — (field 2) and, for Put, the object image
// (field 3). A Select request carries its bucket and key in the same two
// fields, so DecodeRef places a Select as it places a Get.
type Ref struct {
	Bucket, Key string
	Data        []byte
}

// EncodeRef marshals a request.
func EncodeRef(r Ref) []byte {
	e := protowire.NewEncoder()
	e.String(1, r.Bucket)
	e.String(2, r.Key)
	if r.Data != nil {
		e.Bytes(3, r.Data)
	}
	return e.Encoded()
}

// DecodeRef unmarshals and validates a request; Data aliases payload. The
// one validation rule of the protocol lives here: a request that does not
// parse, names no bucket, or (needKey: Put, Get, Delete, Select) names no
// key is rpc.CodeInvalid.
func DecodeRef(payload []byte, needKey bool) (Ref, error) {
	var r Ref
	d := protowire.NewDecoder(payload)
	for !d.Done() {
		f, ty, err := d.Next()
		if err == nil {
			switch f {
			case 1:
				r.Bucket, err = d.String()
			case 2:
				r.Key, err = d.String()
			case 3:
				r.Data, err = d.Bytes()
			default:
				err = d.Skip(ty)
			}
		}
		if err != nil {
			return Ref{}, malformed(err)
		}
	}
	if err := r.check(needKey); err != nil {
		return Ref{}, err
	}
	return r, nil
}

// malformed is the rejection of a request that does not parse.
func malformed(err error) error {
	return rpc.WithCode(fmt.Errorf("objstore: malformed request: %w", err), rpc.CodeInvalid)
}

// check is the rule a parsed request must meet: it names a bucket and,
// with needKey, a key.
func (r Ref) check(needKey bool) error {
	if r.Bucket == "" {
		return rpc.WithCode(fmt.Errorf("objstore: request names no bucket"), rpc.CodeInvalid)
	}
	if needKey && r.Key == "" {
		return rpc.WithCode(fmt.Errorf("objstore: request names no key"), rpc.CodeInvalid)
	}
	return nil
}

// EncodeStats marshals a WorkStats message.
func EncodeStats(st WorkStats) []byte {
	e := protowire.NewEncoder()
	e.Int64(1, st.BytesRead)
	e.Int64(2, st.BytesDecompressed)
	e.Double(3, st.CPUUnits)
	e.Int64(4, st.RowsProcessed)
	return e.Encoded()
}

// DecodeStats unmarshals a WorkStats message.
func DecodeStats(msg []byte) (WorkStats, error) {
	var st WorkStats
	d := protowire.NewDecoder(msg)
	for !d.Done() {
		f, ty, err := d.Next()
		if err != nil {
			return st, err
		}
		switch f {
		case 1:
			st.BytesRead, err = d.Int64()
		case 2:
			st.BytesDecompressed, err = d.Int64()
		case 3:
			st.CPUUnits, err = d.Double()
		case 4:
			st.RowsProcessed, err = d.Int64()
		default:
			err = d.Skip(ty)
		}
		if err != nil {
			return st, err
		}
	}
	return st, nil
}

// EncodeDataStats marshals the Get (and Select) response: the payload
// (field 1) and the storage-side work it cost (field 2).
func EncodeDataStats(data []byte, st WorkStats) []byte {
	e := protowire.NewEncoder()
	e.Bytes(1, data)
	e.Bytes(2, EncodeStats(st))
	return e.Encoded()
}

// DecodeDataStats unmarshals a Get (or Select) response; the returned data
// aliases resp.
func DecodeDataStats(resp []byte) ([]byte, WorkStats, error) {
	var data []byte
	var st WorkStats
	d := protowire.NewDecoder(resp)
	for !d.Done() {
		f, ty, err := d.Next()
		if err != nil {
			return nil, st, err
		}
		switch f {
		case 1:
			data, err = d.Bytes()
		case 2:
			var msg []byte
			if msg, err = d.Bytes(); err == nil {
				st, err = DecodeStats(msg)
			}
		default:
			err = d.Skip(ty)
		}
		if err != nil {
			return nil, st, err
		}
	}
	return data, st, nil
}

// EncodeKeys marshals the List response: one key per repeated field 1.
func EncodeKeys(keys []string) []byte {
	e := protowire.NewEncoder()
	for _, k := range keys {
		e.String(1, k)
	}
	return e.Encoded()
}

// DecodeKeys unmarshals a List response.
func DecodeKeys(resp []byte) ([]string, error) {
	var keys []string
	d := protowire.NewDecoder(resp)
	for !d.Done() {
		f, ty, err := d.Next()
		if err != nil {
			return nil, err
		}
		if f != 1 {
			if err := d.Skip(ty); err != nil {
				return nil, err
			}
			continue
		}
		k, err := d.String()
		if err != nil {
			return nil, err
		}
		keys = append(keys, k)
	}
	return keys, nil
}

// Mount registers the handlers of the five object methods on srv, serving
// store. They are the only implementation of the protocol's server side: a
// missing bucket or object is rpc.CodeNotFound (the Store's own errors
// carry the code), Delete of an absent key succeeds (so a retry after a
// killed connection is safe), and mutated, when non-nil, runs after every
// Put and Delete has been applied — the storage node drops the object's
// cached footers and pages there. Select reads around those caches.
func Mount(srv *rpc.Server, store *Store, mutated func(bucket, key string)) {
	if mutated == nil {
		mutated = func(string, string) {}
	}
	srv.Register(MethodGet, func(_ context.Context, payload []byte) ([]byte, error) {
		r, err := DecodeRef(payload, true)
		if err != nil {
			return nil, err
		}
		data, err := store.Get(r.Bucket, r.Key)
		if err != nil {
			return nil, err
		}
		return EncodeDataStats(data, WorkStats{BytesRead: int64(len(data))}), nil
	})
	srv.Register(MethodPut, func(_ context.Context, payload []byte) ([]byte, error) {
		r, err := DecodeRef(payload, true)
		if err != nil {
			return nil, err
		}
		store.Put(r.Bucket, r.Key, r.Data)
		mutated(r.Bucket, r.Key)
		return nil, nil
	})
	srv.Register(MethodList, func(_ context.Context, payload []byte) ([]byte, error) {
		r, err := DecodeRef(payload, false)
		if err != nil {
			return nil, err
		}
		keys, err := store.List(r.Bucket, r.Key)
		if err != nil {
			return nil, err
		}
		return EncodeKeys(keys), nil
	})
	srv.Register(MethodDelete, func(_ context.Context, payload []byte) ([]byte, error) {
		r, err := DecodeRef(payload, true)
		if err != nil {
			return nil, err
		}
		store.Delete(r.Bucket, r.Key)
		mutated(r.Bucket, r.Key)
		return nil, nil
	})
	srv.Register(MethodSelect, func(_ context.Context, payload []byte) ([]byte, error) {
		return handleSelect(store, payload)
	})
}
