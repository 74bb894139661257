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

// cpuByGroup decodes a CPU profile written by runtime/pprof and returns
// the CPU seconds charged to each of cpuGroups but runtime.gc. A sample is
// charged to the innermost frame that belongs to a reported rush/internal
// module or to an encoding/* package (so runtime helpers such as
// allocation and copying count toward the module that called them, and
// unreported internal packages toward their caller), otherwise to other.
// Samples of garbage-collector work are dropped: the forced collection
// between iterations lands in the profile too, so runtime.gc is read
// from the runtime's own GC CPU accounting around each iteration
// instead. Samples of the benchmark's output checks, which run after an
// iteration's clock stops, are dropped as well.
func cpuByGroup(gzipped []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gzipped))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := decodeProfile(data)
	if err != nil {
		return nil, err
	}
	reported := map[string]bool{}
	for _, g := range cpuGroups {
		reported[g] = true
	}
	group := func(fn string) string {
		if strings.HasPrefix(fn, "encoding/") {
			return "encoding"
		}
		if rest, ok := strings.CutPrefix(fn, "rush/internal/"); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 && reported[rest[:i]] {
				return rest[:i]
			}
		}
		return ""
	}
	out := map[string]float64{}
	for _, s := range p.samples {
		charged := ""
		dropped := false
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				fn := p.funcName(fid)
				if isGCFrame(fn) || strings.HasPrefix(fn, "main.(*checker)") {
					dropped = true
				}
				if charged == "" {
					charged = group(fn)
				}
			}
		}
		if dropped {
			continue
		}
		if charged == "" {
			charged = "other"
		}
		out[charged] += float64(s.nanos) / 1e9
	}
	return out, nil
}

// isGCFrame reports whether fn is garbage-collector work: background
// marking and sweeping, mark assists, and write-barrier flushes.
func isGCFrame(fn string) bool {
	for _, prefix := range []string{
		"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
		"runtime.scanobject", "runtime.sweepone", "runtime.wbBufFlush",
	} {
		if strings.HasPrefix(fn, prefix) {
			return true
		}
	}
	return false
}

// profile is the part of a pprof profile the attribution needs.
type profile struct {
	samples   []profSample
	locFuncs  map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames map[uint64]int64    // function id -> string table index
	strings   []string
}

// funcName returns a function's name, or "" when the profile does not
// define it.
func (p *profile) funcName(id uint64) string {
	if i, ok := p.funcNames[id]; ok && i >= 0 && i < int64(len(p.strings)) {
		return p.strings[i]
	}
	return ""
}

type profSample struct {
	locs  []uint64 // location ids, leaf first
	nanos int64    // the sample's last value: CPU nanoseconds
}

// decodeProfile reads the fields of the pprof protobuf message that
// cpuByGroup uses: sample (2), location (4), function (5) and
// string_table (6).
func decodeProfile(data []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 2:
			var s profSample
			var vals []uint64
			if err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					vals = appendVarints(vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				s.nanos = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var funcs []uint64
			if err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line: function_id is field 1
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locFuncs[id] = funcs
		case 5:
			var id uint64
			var name int64
			if err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.funcNames[id] = name
		case 6:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField calls fn for every field of a protobuf message: v carries a
// varint or fixed value, b a length-delimited body.
func eachField(data []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(data); n <= 0 {
				return errTruncated
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errTruncated
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errTruncated
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errTruncated
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's value: one varint v,
// or the packed varints in b.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst
}
