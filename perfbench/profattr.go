package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// A CPU profile sample is credited to the innermost frame that belongs
// to a named layer: a repository package (the benchmark's own package
// excepted), or the standard library's net/http server and
// encoding/json. So runtime.memmove under kvenc.AppendPair counts as
// cpu.kvenc.codec, and JSON encoding of a run record as
// cpu.encoding_json rather than cpu.sched. Samples of the GC's
// background workers go to cpu.runtime.gc, samples of the benchmark's
// own client code to cpu.bench, and all others to cpu.other.

const (
	benchPkg   = "repro/perfbench"
	gcWorker   = "runtime.gcBgMarkWorker"
	httpServer = "net/http.(*conn).serve"
)

// frame is one function of a sample's stack, leaf first.
type frame struct {
	fn   string // fully qualified, e.g. repro/internal/kvenc.AppendPair
	file string
}

// funcPackage returns the import path of a qualified function name.
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// funcMethod returns the function or method name after the package,
// without closure suffixes: "(*Merger).Next.func1" gives "Next".
func funcMethod(fn, pkg string) string {
	parts := strings.Split(strings.TrimPrefix(fn, pkg+"."), ".")
	if len(parts) > 1 && strings.HasPrefix(parts[0], "(") {
		return parts[1]
	}
	return parts[0]
}

// attribute names the cpu.* metric a sample's stack is credited to.
func attribute(stack []frame) string {
	server := false
	for _, f := range stack {
		switch {
		case f.fn == gcWorker:
			return "cpu.runtime.gc"
		case f.fn == httpServer:
			server = true
		}
	}
	for i, f := range stack {
		pkg := funcPackage(f.fn)
		switch {
		case pkg == "encoding/json":
			return "cpu.encoding_json"
		case pkg == "net/http" && server:
			return "cpu.net_http"
		case pkg == benchPkg || pkg == "repro" || !strings.HasPrefix(pkg, "repro/"):
			continue
		}
		return repoLayer(pkg, f, stack[i+1:])
	}
	for _, f := range stack {
		if pkg := funcPackage(f.fn); pkg == benchPkg || pkg == "net/http" {
			return "cpu.bench"
		}
	}
	return "cpu.other"
}

// repoLayer names the metric of a repository frame. kvenc splits into
// sorting, merging and the pair codec; queries into the map function
// and everything reduce-side (init, merge, finalize, reduce).
func repoLayer(pkg string, f frame, outer []frame) string {
	name := path.Base(pkg)
	switch name {
	case "kvenc":
		method := funcMethod(f.fn, pkg)
		switch base := path.Base(f.file); {
		case base == "sort.go":
			return "cpu.kvenc.sort"
		case base == "losertree.go" || base == "heapmerge.go",
			strings.Contains(method, "Merge"), strings.Contains(method, "group"):
			return "cpu.kvenc.merge"
		}
		return "cpu.kvenc.codec"
	case "queries":
		for _, g := range append([]frame{f}, outer...) {
			if funcPackage(g.fn) == pkg && funcMethod(g.fn, pkg) == "Map" {
				return "cpu.queries.map"
			}
		}
		return "cpu.queries.reduce"
	}
	return "cpu." + name
}

// attributeProfile decodes a gzipped pprof CPU profile and returns each
// metric's share of the profile's CPU time, with the sample count.
func attributeProfile(gz []byte) (map[string]float64, int, error) {
	p, err := decodeProfile(gz)
	if err != nil {
		return nil, 0, err
	}
	byMetric := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		var stack []frame
		for _, id := range s.locs {
			for _, fnID := range p.locs[id] {
				fn := p.funcs[fnID]
				stack = append(stack, frame{fn: p.str(fn.name), file: p.str(fn.file)})
			}
		}
		v := s.value(p.valueIndex)
		byMetric[attribute(stack)] += v
		total += v
	}
	shares := make(map[string]float64, len(byMetric))
	for k, v := range byMetric {
		if total > 0 {
			shares[k] = float64(v) / float64(total)
		}
	}
	return shares, len(p.samples), nil
}

// The decoder below reads just the parts of the pprof protocol buffer
// (github.com/google/pprof/proto/profile.proto) attribution needs.

type pprofFunc struct{ name, file int64 }

type pprofSample struct {
	locs   []uint64
	values []int64
}

func (s pprofSample) value(i int) int64 {
	if i < len(s.values) {
		return s.values[i]
	}
	return 0
}

type pprofProfile struct {
	strings    []string
	funcs      map[uint64]pprofFunc
	locs       map[uint64][]uint64 // location id → function ids, innermost first
	samples    []pprofSample
	valueIndex int // the "cpu" sample type (nanoseconds)
}

func (p *pprofProfile) str(i int64) string {
	if i >= 0 && int(i) < len(p.strings) {
		return p.strings[i]
	}
	return ""
}

var errProto = errors.New("malformed profile")

// pbField is one decoded protobuf field: a varint, or a
// length-delimited payload.
type pbField struct {
	num  int
	wire int
	v    uint64
	data []byte
}

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

func pbFields(b []byte, fn func(pbField) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errProto
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.v, n = pbVarint(b); n == 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errProto
			}
			f.data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// pbUints appends a repeated integer field, packed or not.
func pbUints(dst []uint64, f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	for b := f.data; len(b) > 0; {
		v, n := pbVarint(b)
		if n == 0 {
			return nil, errProto
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

func decodeProfile(gz []byte) (*pprofProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &pprofProfile{funcs: map[uint64]pprofFunc{}, locs: map[uint64][]uint64{}}
	var sampleTypes [][2]int64
	err = pbFields(raw, func(f pbField) error {
		switch f.num {
		case 1: // sample_type
			var vt [2]int64
			err := pbFields(f.data, func(g pbField) error {
				if g.num == 1 || g.num == 2 {
					vt[g.num-1] = int64(g.v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, vt)
			return err
		case 2: // sample
			var s pprofSample
			err := pbFields(f.data, func(g pbField) error {
				var err error
				switch g.num {
				case 1:
					s.locs, err = pbUints(s.locs, g)
				case 2:
					var vs []uint64
					vs, err = pbUints(nil, g)
					for _, v := range vs {
						s.values = append(s.values, int64(v))
					}
				}
				return err
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(f.data, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 4: // line
					return pbFields(g.data, func(h pbField) error {
						if h.num == 1 {
							fns = append(fns, h.v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var fn pprofFunc
			err := pbFields(f.data, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					fn.name = int64(g.v)
				case 4:
					fn.file = int64(g.v)
				}
				return nil
			})
			p.funcs[id] = fn
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	for i, vt := range sampleTypes {
		if p.str(vt[0]) == "cpu" {
			p.valueIndex = i
		}
	}
	return p, nil
}
