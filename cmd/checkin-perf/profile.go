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

// module is the import path prefix of every package in this repository.
const module = "github.com/checkin-kv/checkin"

// layers are the repository's modules a profile sample can be charged to.
// "other" holds module code outside them (the checkin facade, tracing,
// fault injection and this benchmark's own main package); "runtime" holds
// samples with no module frame at all, such as garbage collection and the
// scheduler.
var layers = []string{"sim", "nand", "ftl", "ssd", "core", "lsm", "shard", "workload", "stats", "other", "runtime"}

// layerOf returns the layer owning function fn, or "" when fn is outside
// this module.
func layerOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, module+"/internal/"):
		pkg := fn[len(module+"/internal/"):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, l := range layers[:9] {
			if pkg == l {
				return l
			}
		}
		return "other"
	case strings.HasPrefix(fn, module+"."), strings.HasPrefix(fn, module+"/"), strings.HasPrefix(fn, "main."):
		return "other"
	}
	return ""
}

// profile is the part of a pprof profile (profile.proto) that attribution
// needs: sample types, samples, and each location's function names.
type profile struct {
	types   []string // sample value types, e.g. "cpu" or "alloc_space"
	samples []sample
	// frames maps a location id to its function names, innermost inlined
	// function first; addrs maps it to the location's code address.
	frames map[uint64][]string
	addrs  map[uint64]uint64
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

// parseProfile decodes a gzip-compressed profile as written by
// runtime/pprof.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{frames: map[uint64][]string{}, addrs: map[uint64]uint64{}}
	var strs []string
	var typeIdx []int64
	locFuncs := map[uint64][]uint64{}
	funcName := map[uint64]int64{}
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return fields(b, func(num int, v uint64, _ []byte) error {
				if num == 1 {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return repeated(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return repeated(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id, addr uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 3:
					addr = v
				case 4: // line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id], p.addrs[id] = fns, addr
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	for _, i := range typeIdx {
		p.types = append(p.types, str(i))
	}
	for id, fns := range locFuncs {
		names := make([]string, len(fns))
		for i, f := range fns {
			names[i] = str(funcName[f])
		}
		p.frames[id] = names
	}
	return p, nil
}

// fields walks the protobuf message in b, calling fn with each field's
// number and either its varint value or its length-delimited bytes. Fixed
// 32- and 64-bit fields, which profile.proto does not use in the decoded
// messages, are skipped.
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(b) < size {
				return errors.New("profile: truncated fixed field")
			}
			b = b[size:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: truncated field")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// repeated decodes a repeated varint field given either as one unpacked
// value (b == nil) or as a packed run.
func repeated(v uint64, b []byte, add func(uint64)) error {
	if b == nil {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}

// layerOfSample charges a sample to the innermost frame inside this module,
// or to "runtime" when the stack has none.
func (p *profile) layerOfSample(s sample) string {
	for _, loc := range s.locs {
		for _, fn := range p.frames[loc] {
			if l := layerOf(fn); l != "" {
				return l
			}
		}
	}
	return "runtime"
}

// stackKey identifies a sample's call stack by code addresses, which stay
// fixed across profiles taken from one process.
func (p *profile) stackKey(s sample) string {
	var b strings.Builder
	for _, loc := range s.locs {
		fmt.Fprintf(&b, "%x/", p.addrs[loc])
	}
	return b.String()
}

// valueIndex returns the position of the sample value type named typ.
func (p *profile) valueIndex(typ string) (int, error) {
	for i, t := range p.types {
		if t == typ {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile: no %q values (have %v)", typ, p.types)
}

// byLayer sums the typ values of p's samples per layer. When base is not
// nil it is an earlier cumulative profile of the same process (the heap
// profile), and each stack's base value is subtracted first, which leaves
// what happened between the two profiles.
func byLayer(p, base *profile, typ string) (map[string]int64, error) {
	idx, err := p.valueIndex(typ)
	if err != nil {
		return nil, err
	}
	before := map[string]int64{}
	if base != nil {
		bidx, err := base.valueIndex(typ)
		if err != nil {
			return nil, err
		}
		for _, s := range base.samples {
			if bidx >= len(s.values) {
				return nil, errors.New("profile: sample without a value")
			}
			before[base.stackKey(s)] += s.values[bidx]
		}
	}
	out := make(map[string]int64, len(layers))
	for _, l := range layers {
		out[l] = 0
	}
	for _, s := range p.samples {
		if idx >= len(s.values) {
			return nil, errors.New("profile: sample without a value")
		}
		v := s.values[idx]
		if base != nil {
			k := p.stackKey(s)
			v -= before[k]
			delete(before, k) // one stack may span several samples
		}
		out[p.layerOfSample(s)] += v
	}
	return out, nil
}
