package compress

import (
	"encoding/binary"
	"errors"
	"slices"
)

// This file implements the Snappy block format from scratch:
// https://github.com/google/snappy/blob/main/format_description.txt
//
// A compressed block is a varint-encoded uncompressed length followed by a
// sequence of elements. Each element starts with a tag byte whose low two
// bits select the element type:
//
//	00 literal    — upper 6 bits hold length-1, or 60..63 to indicate the
//	                length is stored in the following 1..4 little-endian bytes
//	01 copy1      — 3-bit length-4 (4..11), 11-bit offset (high 3 bits in
//	                tag, low 8 in next byte)
//	10 copy2      — 6-bit length-1, 16-bit little-endian offset
//	11 copy4      — 6-bit length-1, 32-bit little-endian offset
const (
	tagLiteral = 0x00
	tagCopy1   = 0x01
	tagCopy2   = 0x02
	tagCopy4   = 0x03
)

var (
	// ErrCorrupt reports a malformed Snappy block.
	ErrCorrupt = errors.New("compress: corrupt snappy data")
)

const (
	snappyMaxOffset = 1 << 15 // encoder window; format allows up to 2^32-1
	snappyMinMatch  = 4
	hashTableBits   = 14
	hashTableSize   = 1 << hashTableBits
)

// snappyEncode compresses src, appending the block to dst, using a greedy
// LZ77 matcher with a 16k-entry hash table, mirroring the reference
// encoder's fast path.
func snappyEncode(dst, src []byte) []byte {
	dst = slices.Grow(dst, len(src)/2+16)
	dst = appendUvarint(dst, uint64(len(src)))
	if len(src) == 0 {
		return dst
	}
	if len(src) < snappyMinMatch {
		return appendLiteral(dst, src)
	}

	var table [hashTableSize]int32 // candidate positions + 1 (0 = empty)
	litStart := 0
	i := 0
	limit := len(src) - snappyMinMatch
	for i <= limit {
		h := snappyHash(binary.LittleEndian.Uint32(src[i:]))
		cand := int(table[h]) - 1
		table[h] = int32(i) + 1
		if cand >= 0 && i-cand <= snappyMaxOffset &&
			binary.LittleEndian.Uint32(src[cand:]) == binary.LittleEndian.Uint32(src[i:]) {
			// Extend the match.
			matchLen := snappyMinMatch
			for i+matchLen < len(src) && src[cand+matchLen] == src[i+matchLen] {
				matchLen++
			}
			if litStart < i {
				dst = appendLiteral(dst, src[litStart:i])
			}
			dst = appendCopy(dst, i-cand, matchLen)
			i += matchLen
			litStart = i
			continue
		}
		i++
	}
	if litStart < len(src) {
		dst = appendLiteral(dst, src[litStart:])
	}
	return dst
}

func snappyHash(u uint32) uint32 {
	return (u * 0x1e35a7bd) >> (32 - hashTableBits)
}

func appendUvarint(dst []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(dst, tmp[:n]...)
}

func appendLiteral(dst, lit []byte) []byte {
	n := len(lit) - 1
	switch {
	case n < 60:
		dst = append(dst, byte(n)<<2|tagLiteral)
	case n < 1<<8:
		dst = append(dst, 60<<2|tagLiteral, byte(n))
	case n < 1<<16:
		dst = append(dst, 61<<2|tagLiteral, byte(n), byte(n>>8))
	case n < 1<<24:
		dst = append(dst, 62<<2|tagLiteral, byte(n), byte(n>>8), byte(n>>16))
	default:
		dst = append(dst, 63<<2|tagLiteral, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
	}
	return append(dst, lit...)
}

// appendCopy emits one or more copy elements for a match of the given
// offset and length.
func appendCopy(dst []byte, offset, length int) []byte {
	for length > 0 {
		n := length
		switch {
		case n >= 4 && n <= 11 && offset < 1<<11:
			dst = append(dst,
				byte(offset>>8)<<5|byte(n-4)<<2|tagCopy1,
				byte(offset))
			return dst
		case offset < 1<<16:
			if n > 64 {
				n = 64
				// Avoid leaving a tail shorter than the 4-byte minimum a
				// copy1 could need; 60 keeps the remainder >= 4.
				if length-n < 4 {
					n = 60
				}
			}
			dst = append(dst,
				byte(n-1)<<2|tagCopy2,
				byte(offset), byte(offset>>8))
		default:
			if n > 64 {
				n = 64
				if length-n < 4 {
					n = 60
				}
			}
			dst = append(dst,
				byte(n-1)<<2|tagCopy4,
				byte(offset), byte(offset>>8), byte(offset>>16), byte(offset>>24))
		}
		length -= n
	}
	return dst
}

// snappyMaxExpansion bounds what a block can decode to: the densest
// element is a 3-byte copy2 producing 64 bytes (21.3×), so a declared
// length above 22 × the encoded size cannot be honest and is rejected
// before anything is allocated for it.
const snappyMaxExpansion = 22

// snappyDecode expands a Snappy block, appending the output to dst. The
// output region is sized once from the block header (into dst's spare
// capacity when it fits) and written by index: literals and
// non-overlapping matches are one copy each, overlapping matches
// (offset < length) replicate their pattern by doubling.
func snappyDecode(dst, src []byte) ([]byte, error) {
	uLen, n := binary.Uvarint(src)
	if n <= 0 {
		return nil, ErrCorrupt
	}
	src = src[n:]
	if uLen > snappyMaxExpansion*uint64(len(src)) {
		return nil, ErrCorrupt
	}
	base := len(dst)
	if uint64(cap(dst)-base) < uLen {
		grown := make([]byte, base+int(uLen))
		copy(grown, dst)
		dst = grown
	} else {
		dst = dst[:base+int(uLen)]
	}
	out := dst[base:]

	d, s := 0, 0 // write position in out, read position in src
	for s < len(src) {
		tag := src[s]
		var length, offset int
		switch tag & 0x03 {
		case tagLiteral:
			x := uint32(tag >> 2)
			switch {
			case x < 60:
				s++
			case x == 60:
				if len(src)-s < 2 {
					return nil, ErrCorrupt
				}
				x = uint32(src[s+1])
				s += 2
			case x == 61:
				if len(src)-s < 3 {
					return nil, ErrCorrupt
				}
				x = uint32(binary.LittleEndian.Uint16(src[s+1:]))
				s += 3
			case x == 62:
				if len(src)-s < 4 {
					return nil, ErrCorrupt
				}
				x = uint32(src[s+1]) | uint32(src[s+2])<<8 | uint32(src[s+3])<<16
				s += 4
			default:
				if len(src)-s < 5 {
					return nil, ErrCorrupt
				}
				x = binary.LittleEndian.Uint32(src[s+1:])
				s += 5
			}
			// The literal is x+1 bytes; compare before adding so a 2^32-1
			// length cannot wrap.
			if uint64(x) >= uint64(len(src)-s) || uint64(x) >= uint64(len(out)-d) {
				return nil, ErrCorrupt
			}
			length = int(x) + 1
			if length <= 16 && len(src)-s >= 16 && len(out)-d >= 16 {
				// Short literal with room on both sides: one fixed
				// 16-byte move; the bytes past length are overwritten by
				// the elements that follow.
				*(*[16]byte)(out[d:]) = *(*[16]byte)(src[s:])
			} else {
				copy(out[d:d+length], src[s:])
			}
			d += length
			s += length
			continue
		case tagCopy1:
			if len(src)-s < 2 {
				return nil, ErrCorrupt
			}
			length = int(tag>>2&0x07) + 4
			offset = int(tag>>5)<<8 | int(src[s+1])
			s += 2
		case tagCopy2:
			if len(src)-s < 3 {
				return nil, ErrCorrupt
			}
			length = int(tag>>2) + 1
			offset = int(binary.LittleEndian.Uint16(src[s+1:]))
			s += 3
		case tagCopy4:
			if len(src)-s < 5 {
				return nil, ErrCorrupt
			}
			length = int(tag>>2) + 1
			offset = int(binary.LittleEndian.Uint32(src[s+1:]))
			s += 5
		}
		if offset <= 0 || offset > d || length > len(out)-d {
			return nil, ErrCorrupt
		}
		if length <= 16 && offset >= 8 && len(out)-d >= 16 {
			// Short match: two fixed 8-byte moves. With offset >= 8 the
			// second word's source is either old output or what the first
			// move just wrote, which is what a byte-wise copy would read.
			pos := d - offset
			*(*[8]byte)(out[d:]) = *(*[8]byte)(out[pos:])
			*(*[8]byte)(out[d+8:]) = *(*[8]byte)(out[pos+8:])
			d += length
			continue
		}
		// The source out[d-offset:d] never overlaps the destination, which
		// starts at d. When offset < length each pass appends what is there
		// so far, doubling the replicated pattern until length is covered.
		for end := d + length; d < end; {
			d += copy(out[d:end], out[d-offset:d])
		}
	}
	if d != len(out) {
		return nil, ErrCorrupt
	}
	return dst, nil
}
