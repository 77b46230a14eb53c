package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
)

// This file decodes the subset of the pprof protobuf format that
// runtime/pprof writes for a CPU profile, and charges each sample to a
// layer of the repository.

// cpuProfile is a decoded CPU profile: one stack (function names, leaf
// first, inlined frames expanded) and CPU nanoseconds per sample.
type cpuProfile struct {
	stacks [][]string
	nanos  []int64
}

// protobuf wire types.
const (
	wireVarint = 0
	wireI64    = 1
	wireBytes  = 2
	wireI32    = 5
)

type pbuf struct {
	b   []byte
	err error
}

func (p *pbuf) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			p.err = io.ErrUnexpectedEOF
			return 0
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	p.err = errors.New("profile: varint overflow")
	return 0
}

// field reads one field header and returns its number, wire type and, for
// length-delimited fields, the payload; varint values come back in v.
func (p *pbuf) field() (num int, wire int, v uint64, payload []byte) {
	key := p.varint()
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case wireVarint:
		v = p.varint()
	case wireBytes:
		n := p.varint()
		if n > uint64(len(p.b)) {
			p.err = io.ErrUnexpectedEOF
			return
		}
		payload, p.b = p.b[:n], p.b[n:]
	case wireI64:
		p.skip(8)
	case wireI32:
		p.skip(4)
	default:
		p.err = errors.New("profile: bad wire type")
	}
	return
}

func (p *pbuf) skip(n int) {
	if n > len(p.b) {
		p.err = io.ErrUnexpectedEOF
		return
	}
	p.b = p.b[n:]
}

// uints appends a repeated integer field that may be packed or not.
func uints(dst []uint64, wire int, v uint64, payload []byte) ([]uint64, error) {
	if wire == wireVarint {
		return append(dst, v), nil
	}
	q := pbuf{b: payload}
	for len(q.b) > 0 && q.err == nil {
		dst = append(dst, q.varint())
	}
	return dst, q.err
}

// parseCPUProfile decodes a gzipped CPU profile.
func parseCPUProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct{ locs, vals []uint64 }
	var (
		samples     []sample
		sampleTypes []uint64 // string index of each value's type
		locFuncs    = map[uint64][]uint64{}
		funcNames   = map[uint64]uint64{}
		strtab      []string
	)
	p := pbuf{b: raw}
	for len(p.b) > 0 && p.err == nil {
		num, _, _, payload := p.field()
		if p.err != nil {
			break
		}
		q := pbuf{b: payload}
		switch num {
		case 1: // sample_type: ValueType{type, unit}
			for len(q.b) > 0 && q.err == nil {
				if n, _, v, _ := q.field(); n == 1 {
					sampleTypes = append(sampleTypes, v)
				}
			}
		case 2: // sample: {location_id, value, label}
			var s sample
			for len(q.b) > 0 && q.err == nil {
				n, w, v, pl := q.field()
				switch n {
				case 1:
					s.locs, err = uints(s.locs, w, v, pl)
				case 2:
					s.vals, err = uints(s.vals, w, v, pl)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // location: {id, mapping_id, address, line{function_id, line}}
			var id uint64
			var funcs []uint64
			for len(q.b) > 0 && q.err == nil {
				n, _, v, pl := q.field()
				switch n {
				case 1:
					id = v
				case 4:
					l := pbuf{b: pl}
					for len(l.b) > 0 && l.err == nil {
						if ln, _, lv, _ := l.field(); ln == 1 {
							funcs = append(funcs, lv)
						}
					}
				}
			}
			locFuncs[id] = funcs
		case 5: // function: {id, name, system_name, filename, start_line}
			var id, name uint64
			for len(q.b) > 0 && q.err == nil {
				n, _, v, _ := q.field()
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcNames[id] = name
		case 6: // string_table
			strtab = append(strtab, string(payload))
		}
		if q.err != nil {
			return nil, q.err
		}
	}
	if p.err != nil {
		return nil, p.err
	}
	// The CPU-time value is the one whose type is "cpu".
	valIdx := len(sampleTypes) - 1
	for i, s := range sampleTypes {
		if int(s) < len(strtab) && strtab[s] == "cpu" {
			valIdx = i
		}
	}
	str := func(i uint64) string {
		if int(i) < len(strtab) {
			return strtab[i]
		}
		return ""
	}
	prof := &cpuProfile{}
	for _, s := range samples {
		if valIdx < 0 || valIdx >= len(s.vals) {
			continue
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				stack = append(stack, str(funcNames[fn]))
			}
		}
		prof.stacks = append(prof.stacks, stack)
		prof.nanos = append(prof.nanos, int64(s.vals[valIdx]))
	}
	return prof, nil
}

const modulePrefix = "kubeknots/internal/"

// layerOf names the layer a sample is charged to: the package of the
// innermost kubeknots/internal frame, so runtime and standard-library time
// (allocation, formatting, hashing) counts toward the layer that called it.
// knots and tsdb are split by the operation on the stack: heartbeat
// sampling versus aggregator snapshots, appends versus reads. The
// reference kernel runs inside the engine loop but belongs to no layer.
func layerOf(stack []string) string {
	for i, fn := range stack {
		if strings.HasPrefix(fn, "main.refKernel") {
			return "refkernel"
		}
		if !strings.HasPrefix(fn, modulePrefix) {
			continue
		}
		rest := fn[len(modulePrefix):]
		pkg := rest
		if slash := strings.LastIndex(rest, "/"); slash >= 0 {
			pkg = rest[:slash] // obs/span charges to obs
		} else if dot := strings.Index(rest, "."); dot >= 0 {
			pkg = rest[:dot]
		}
		outer := stack[i:]
		switch pkg {
		case "knots":
			if onStack(outer, "knots.(*Aggregator).Snapshot") {
				return "knots.snapshot"
			}
			if onStack(outer, "knots.(*Monitor).Sample") {
				return "knots.sample"
			}
		case "tsdb":
			if onStack(outer, "tsdb.(*DB).Append") {
				return "tsdb.append"
			}
			return "tsdb.read"
		}
		return pkg
	}
	return "other"
}

func onStack(stack []string, fn string) bool {
	for _, f := range stack {
		if strings.HasSuffix(f, fn) {
			return true
		}
	}
	return false
}

// selfSeconds charges every sample of the profile to its layer.
func (p *cpuProfile) selfSeconds() map[string]float64 {
	out := map[string]float64{}
	for i, st := range p.stacks {
		out[layerOf(st)] += float64(p.nanos[i]) / 1e9
	}
	return out
}
