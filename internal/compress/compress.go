// Package compress provides the compression codecs used by the
// parquetlite column-chunk format and the object-store transfer paths.
//
// Codec inventory (see DESIGN.md §2 for the substitution rationale):
//
//   - None:   identity.
//   - Snappy: a from-scratch implementation of Google's Snappy block
//     format (raw, non-framed) — the same format the real Parquet SNAPPY
//     codec stores.
//   - Gzip:   stdlib compress/gzip at the default level.
//   - Zstd:   simulated with stdlib DEFLATE at BestCompression; the
//     compression study only relies on ratio(Zstd) ≥ ratio(Gzip) >
//     ratio(Snappy), which this preserves.
package compress

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// Codec identifies a compression algorithm.
type Codec uint8

const (
	// None stores data uncompressed.
	None Codec = iota
	// Snappy is the Snappy block format, implemented from scratch.
	Snappy
	// Gzip is DEFLATE with gzip framing at the default level.
	Gzip
	// Zstd is a Zstandard stand-in (DEFLATE at BestCompression).
	Zstd
)

// String returns the codec's canonical lower-case name.
func (c Codec) String() string {
	switch c {
	case None:
		return "none"
	case Snappy:
		return "snappy"
	case Gzip:
		return "gzip"
	case Zstd:
		return "zstd"
	default:
		return fmt.Sprintf("codec(%d)", uint8(c))
	}
}

// ParseCodec resolves a codec by name.
func ParseCodec(name string) (Codec, error) {
	switch name {
	case "none", "", "uncompressed":
		return None, nil
	case "snappy":
		return Snappy, nil
	case "gzip":
		return Gzip, nil
	case "zstd":
		return Zstd, nil
	default:
		return None, fmt.Errorf("compress: unknown codec %q", name)
	}
}

// Codecs lists all supported codecs in the order the paper sweeps them.
func Codecs() []Codec { return []Codec{None, Snappy, Gzip, Zstd} }

// Encode compresses src with the codec into a fresh buffer.
func Encode(c Codec, src []byte) ([]byte, error) { return EncodeAppend(c, nil, src) }

// EncodeAppend compresses src with the codec and appends the output to
// dst, returning the extended slice. It mirrors DecodeAppend: a writer
// that passes the same buffer for every chunk (parquetlite appends each
// chunk straight onto its file image) allocates only when the buffer
// grows.
func EncodeAppend(c Codec, dst, src []byte) ([]byte, error) {
	switch c {
	case None:
		return append(dst, src...), nil
	case Snappy:
		return snappyEncode(dst, src), nil
	case Gzip:
		buf := bytes.NewBuffer(dst)
		w := gzip.NewWriter(buf)
		if _, err := w.Write(src); err != nil {
			return nil, err
		}
		if err := w.Close(); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	case Zstd:
		buf := bytes.NewBuffer(dst)
		w, err := flate.NewWriter(buf, flate.BestCompression)
		if err != nil {
			return nil, err
		}
		if _, err := w.Write(src); err != nil {
			return nil, err
		}
		if err := w.Close(); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	default:
		return nil, fmt.Errorf("compress: unknown codec %d", c)
	}
}

// Decode decompresses src with the codec.
func Decode(c Codec, src []byte) ([]byte, error) { return DecodeAppend(c, src, nil, math.MaxInt) }

// errTooLarge rejects a stream that decompresses to more than its limit.
var errTooLarge = errors.New("compress: output exceeds its declared size")

// DecodeAppend decompresses src and appends the output to dst, returning
// the extended slice. Passing a pooled dst with spare capacity lets hot
// decode paths (parquetlite page reads) avoid a fresh allocation per
// chunk: every codec, Snappy included, decodes straight into that
// capacity and allocates only when the output does not fit.
//
// limit is the most bytes the output may hold (parquetlite passes the
// chunk's recorded uncompressed size). A stream that would decode to more
// fails: Snappy rejects a larger header before it allocates, and the
// DEFLATE codecs stop one byte past limit, so a small chunk that inflates
// without bound costs at most limit bytes.
func DecodeAppend(c Codec, src, dst []byte, limit int) ([]byte, error) {
	limit = max(limit, 0)
	switch c {
	case None:
		if len(src) > limit {
			return nil, errTooLarge
		}
		return append(dst, src...), nil
	case Snappy:
		return snappyDecode(dst, src, limit)
	case Gzip:
		r, err := gzip.NewReader(bytes.NewReader(src))
		if err != nil {
			return nil, fmt.Errorf("compress: gzip: %w", err)
		}
		defer r.Close()
		out, err := readAppend(r, dst, limit)
		if err != nil {
			return nil, fmt.Errorf("compress: gzip: %w", err)
		}
		return out, nil
	case Zstd:
		r := flate.NewReader(bytes.NewReader(src))
		defer r.Close()
		out, err := readAppend(r, dst, limit)
		if err != nil {
			return nil, fmt.Errorf("compress: zstd-sim: %w", err)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("compress: unknown codec %d", c)
	}
}

// readAppend reads r to EOF, appending into dst's spare capacity first
// and growing only when needed (io.ReadAll always allocates fresh): by
// what it has read so far and at least 4 KiB, but never to more than one
// byte past limit. It fails if that byte arrives.
func readAppend(r io.Reader, dst []byte, limit int) ([]byte, error) {
	base := len(dst)
	for {
		rest := limit - (len(dst) - base) // bytes the output may still take
		if len(dst) == cap(dst) {
			dst = slices.Grow(dst, min(max(len(dst)-base, 4<<10), rest)+1)
		}
		end := cap(dst)
		if rest < end-len(dst) {
			end = len(dst) + rest + 1
		}
		n, err := r.Read(dst[len(dst):end])
		dst = dst[:len(dst)+n]
		switch {
		case len(dst)-base > limit:
			return nil, errTooLarge
		case err == io.EOF:
			return dst, nil
		case err != nil:
			return nil, err
		}
	}
}

// DecompressCostPerByte returns the CPU cost of decompressing one byte,
// in cost-model units (1 unit ≈ 100 ns on a 1 core-GHz machine).
// Calibrated against real decoder throughputs on a ~3 GHz core: snappy
// ≈ 1.5 GB/s, zstd ≈ 1 GB/s, gzip ≈ 0.75 GB/s.
func DecompressCostPerByte(c Codec) float64 {
	switch c {
	case None:
		return 0
	case Snappy:
		return 0.02
	case Gzip:
		return 0.04
	case Zstd:
		return 0.03
	default:
		return 0.05
	}
}
