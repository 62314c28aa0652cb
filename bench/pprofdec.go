package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// A decoder for the subset of the pprof wire format (gzip-compressed
// protobuf, github.com/google/pprof/proto/profile.proto) the benchmark
// needs: per sample, its first value, its string labels, and the function
// names of its stack, leaf first.

// profSample is one decoded stack sample.
type profSample struct {
	count  int64             // first value: samples for a CPU profile
	stack  []string          // function names, leaf first
	labels map[string]string // string-valued labels
}

// protoField is one decoded field of a protobuf message.
type protoField struct {
	num   int
	wire  int
	val   uint64 // wire types 0, 1, 5
	bytes []byte // wire type 2
}

var errTruncated = errors.New("truncated protobuf")

func readVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errTruncated
}

// readFields splits one message into its fields.
func readFields(b []byte) ([]protoField, error) {
	var out []protoField
	for len(b) > 0 {
		key, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		b = rest
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.val, b, err = readVarint(b); err != nil {
				return nil, err
			}
		case 1, 5:
			n := 8
			if f.wire == 5 {
				n = 4
			}
			if len(b) < n {
				return nil, errTruncated
			}
			for i := n - 1; i >= 0; i-- {
				f.val = f.val<<8 | uint64(b[i])
			}
			b = b[n:]
		case 2:
			var n uint64
			if n, b, err = readVarint(b); err != nil {
				return nil, err
			}
			if uint64(len(b)) < n {
				return nil, errTruncated
			}
			f.bytes, b = b[:n], b[n:]
		default:
			return nil, fmt.Errorf("unsupported protobuf wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// repeatedUint appends the values of a repeated integer field, which
// arrives either packed (wire type 2) or one value per field.
func repeatedUint(dst []uint64, f protoField) ([]uint64, error) {
	if f.wire != 2 {
		return append(dst, f.val), nil
	}
	b := f.bytes
	for len(b) > 0 {
		v, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		dst, b = append(dst, v), rest
	}
	return dst, nil
}

// decodeProfile parses a pprof profile as written by runtime/pprof.
func decodeProfile(data []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	top, err := readFields(raw)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	// Profile: sample = 2, location = 4, function = 5, string_table = 6.
	var strs []string
	for _, f := range top {
		if f.num == 6 {
			strs = append(strs, string(f.bytes))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}

	funcName := map[uint64]string{} // Function: id = 1, name = 2
	locFuncs := map[uint64][]uint64{}
	type rawSample struct {
		locs   []uint64
		values []uint64
		labels map[string]string
	}
	var samples []rawSample
	for _, f := range top {
		if f.wire != 2 || (f.num != 2 && f.num != 4 && f.num != 5) {
			continue
		}
		fields, err := readFields(f.bytes)
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		switch f.num {
		case 5:
			var id, name uint64
			for _, g := range fields {
				switch g.num {
				case 1:
					id = g.val
				case 2:
					name = g.val
				}
			}
			funcName[id] = str(name)
		case 4: // Location: id = 1, line = 4 (Line: function_id = 1), innermost inlined call first
			var id uint64
			var fns []uint64
			for _, g := range fields {
				switch g.num {
				case 1:
					id = g.val
				case 4:
					line, err := readFields(g.bytes)
					if err != nil {
						return nil, fmt.Errorf("profile: %w", err)
					}
					for _, h := range line {
						if h.num == 1 {
							fns = append(fns, h.val)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 2: // Sample: location_id = 1, value = 2, label = 3 (Label: key = 1, str = 2)
			var s rawSample
			for _, g := range fields {
				switch g.num {
				case 1:
					if s.locs, err = repeatedUint(s.locs, g); err != nil {
						return nil, fmt.Errorf("profile: %w", err)
					}
				case 2:
					if s.values, err = repeatedUint(s.values, g); err != nil {
						return nil, fmt.Errorf("profile: %w", err)
					}
				case 3:
					label, err := readFields(g.bytes)
					if err != nil {
						return nil, fmt.Errorf("profile: %w", err)
					}
					var key, val uint64
					for _, h := range label {
						switch h.num {
						case 1:
							key = h.val
						case 2:
							val = h.val
						}
					}
					if val != 0 {
						if s.labels == nil {
							s.labels = map[string]string{}
						}
						s.labels[str(key)] = str(val)
					}
				}
			}
			samples = append(samples, s)
		}
	}

	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ps := profSample{count: int64(s.values[0]), labels: s.labels}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				ps.stack = append(ps.stack, funcName[fn])
			}
		}
		out = append(out, ps)
	}
	return out, nil
}
