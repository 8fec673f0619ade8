package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// packageShares decodes a gzipped pprof CPU profile and returns each
// package's share of self samples: every sample is charged to the
// innermost function of its leaf location, weighted by its last value
// (CPU nanoseconds). The standard library has no profile.proto decoder,
// so the few messages needed are read by hand.
func packageShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		leaf  uint64
		value int64
	}
	var (
		samples   []sample
		locFunc   = map[uint64]uint64{} // location id → innermost function id
		funcName  = map[uint64]int64{}  // function id → string index
		strtab    []string
		decodeErr error
	)
	err = fields(raw, func(f int, v uint64, b []byte) {
		switch f {
		case 2: // Sample
			var locs []uint64
			var vals []int64
			decodeErr = errors.Join(decodeErr, fields(b, func(f int, v uint64, b []byte) {
				switch f {
				case 1:
					locs = appendPacked(locs, v, b)
				case 2:
					for _, u := range appendPacked(nil, v, b) {
						vals = append(vals, int64(u))
					}
				}
			}))
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{leaf: locs[0], value: vals[len(vals)-1]})
			}
		case 4: // Location
			var id, fn uint64
			first := true
			decodeErr = errors.Join(decodeErr, fields(b, func(f int, v uint64, b []byte) {
				switch f {
				case 1:
					id = v
				case 4: // Line; the first one is the innermost inlined frame
					if first {
						first = false
						decodeErr = errors.Join(decodeErr, fields(b, func(f int, v uint64, _ []byte) {
							if f == 1 {
								fn = v
							}
						}))
					}
				}
			}))
			locFunc[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			decodeErr = errors.Join(decodeErr, fields(b, func(f int, v uint64, _ []byte) {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}))
			funcName[id] = name
		case 6:
			strtab = append(strtab, string(b))
		}
	})
	if err = errors.Join(err, decodeErr); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	shares := make(map[string]float64, len(sharePackages))
	for _, p := range sharePackages {
		shares[p] = 0
	}
	var total float64
	for _, s := range samples {
		name := ""
		if i := funcName[locFunc[s.leaf]]; i >= 0 && int(i) < len(strtab) {
			name = strtab[i]
		}
		shares[bucket(name)] += float64(s.value)
		total += float64(s.value)
	}
	if total > 0 {
		for p := range shares {
			shares[p] /= total
		}
	}
	return shares, nil
}

// bucket maps a fully qualified function name to its share bucket.
func bucket(fn string) string {
	slash := strings.LastIndex(fn, "/")
	pkg := fn
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "videodvfs/internal/"):
		pkg = strings.TrimPrefix(pkg, "videodvfs/internal/")
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		pkg = "runtime"
	case pkg == "math/rand":
		pkg = "rand"
	case pkg == "encoding/json":
		pkg = "json"
	case pkg == "net/http":
		pkg = "http"
	}
	for _, p := range sharePackages {
		if p == pkg {
			return p
		}
	}
	return "other"
}

// fields walks one protobuf message, calling fn with each field number
// and either its varint value or its length-delimited bytes.
func fields(b []byte, fn func(field int, v uint64, data []byte)) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			fn(field, v, nil)
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			fn(field, 0, b[n:n+int(l)])
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendPacked appends a repeated varint field that arrived either as one
// value (data nil) or packed (data holds the varints).
func appendPacked(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		u, n := binary.Uvarint(data)
		if n <= 0 {
			return dst
		}
		dst = append(dst, u)
		data = data[n:]
	}
	return dst
}
