package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
)

// Layers reached only from inside the simulation kernel's loop are
// measured by sampling: every CPU or allocation sample is charged to the
// innermost frame of a repro/internal/<module> package on its stack.
// Standard-library frames are thereby charged to the module that called
// them, samples whose stack has no repository frame go to "runtime", and
// samples in the benchmark's own code go to "bench".

const modulePrefix = "repro/internal/"

// frameModule returns the layer a function symbol belongs to, or "" for
// standard-library and runtime frames.
func frameModule(fn string) string {
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "repro/perfbench.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}

// Attribution is sampled cost per layer.
type Attribution struct {
	// Self holds cost charged to each layer (CPU nanoseconds or bytes).
	Self map[string]int64
	// Codec holds the part of Self sampled under compress/* frames.
	Codec map[string]int64
}

func newAttribution() Attribution {
	return Attribution{Self: map[string]int64{}, Codec: map[string]int64{}}
}

// charge attributes value to the stack given leaf first.
func (a Attribution) charge(stack []string, value int64) {
	codec := false
	for _, fn := range stack {
		if m := frameModule(fn); m != "" {
			a.Self[m] += value
			if codec {
				a.Codec[m] += value
			}
			return
		}
		if strings.HasPrefix(fn, "compress/") {
			codec = true
		}
	}
	a.Self["runtime"] += value
}

// AttributeCPU charges the samples of a CPU profile, as written by
// runtime/pprof, to layers. The result is in CPU nanoseconds.
func AttributeCPU(profile []byte) (Attribution, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return Attribution{}, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return Attribution{}, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return Attribution{}, fmt.Errorf("cpu profile: %w", err)
	}
	vi := -1
	for i, t := range p.sampleTypes {
		if p.str(t) == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return Attribution{}, errors.New("cpu profile: no cpu sample type")
	}
	a := newAttribution()
	var stack []string
	for _, s := range p.samples {
		if vi >= len(s.values) {
			continue
		}
		stack = stack[:0]
		for _, id := range s.locations {
			for _, fid := range p.locations[id] {
				stack = append(stack, p.str(p.functions[fid]))
			}
		}
		a.charge(stack, s.values[vi])
	}
	return a, nil
}

// AttributeAllocs charges the bytes allocated since before (a
// runtime.MemProfile snapshot taken with the same MemProfileRate) to
// layers, scaling the sampled records to estimated totals the way
// runtime/pprof does.
func AttributeAllocs(before, after []runtime.MemProfileRecord) Attribution {
	type key [32]uintptr
	base := make(map[key]runtime.MemProfileRecord, len(before))
	for _, r := range before {
		base[key(r.Stack0)] = r
	}
	a := newAttribution()
	rate := int64(runtime.MemProfileRate)
	var stack []string
	for _, r := range after {
		b := base[key(r.Stack0)]
		count, size := r.AllocObjects-b.AllocObjects, r.AllocBytes-b.AllocBytes
		if count <= 0 || size <= 0 {
			continue
		}
		if rate > 1 {
			avg := float64(size) / float64(count)
			size = int64(float64(size) / (1 - math.Exp(-avg/float64(rate))))
		}
		stack = stack[:0]
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			stack = append(stack, f.Function)
			if !more {
				break
			}
		}
		a.charge(stack, size)
	}
	return a
}

// MemProfile returns the current allocation profile, after two
// collections so that recent allocations are published.
func MemProfile() []runtime.MemProfileRecord {
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs := make([]runtime.MemProfileRecord, n+64)
		m, ok := runtime.MemProfile(recs, true)
		if ok {
			return recs[:m]
		}
		n = m
	}
}

// profile is the part of the pprof protobuf schema (profile.proto) the
// attribution reads.
type profile struct {
	sampleTypes []int64 // string-table index of each value's type
	samples     []sample
	locations   map[uint64][]uint64 // location id -> function ids, innermost first
	functions   map[uint64]int64    // function id -> name string index
	strings     []string
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// protoField is one decoded protobuf field: a varint value or a
// length-delimited payload.
type protoField struct {
	num   int
	wire  int
	value uint64
	data  []byte
}

// protoFields decodes one message's fields, calling fn for each.
func protoFields(b []byte, fn func(protoField) error) error {
	for len(b) > 0 {
		tag, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field tag")
		}
		b = b[n:]
		f := protoField{num: int(tag >> 3), wire: int(tag & 7)}
		switch f.wire {
		case 0:
			f.value, n = uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			f.data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, f protoField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.value), nil
	}
	for b := f.data; len(b) > 0; {
		v, n := uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := protoFields(b, func(f protoField) error {
		switch f.num {
		case 1: // sample_type: ValueType{type, unit}
			return protoFields(f.data, func(v protoField) error {
				if v.num == 1 {
					p.sampleTypes = append(p.sampleTypes, int64(v.value))
				}
				return nil
			})
		case 2: // sample: {location_id, value}
			var s sample
			var vals []uint64
			err := protoFields(f.data, func(v protoField) (err error) {
				switch v.num {
				case 1:
					s.locations, err = appendVarints(s.locations, v)
				case 2:
					vals, err = appendVarints(vals, v)
				}
				return err
			})
			for _, v := range vals {
				s.values = append(s.values, int64(v))
			}
			p.samples = append(p.samples, s)
			return err
		case 4: // location: {id, line{function_id}}
			var id uint64
			var fns []uint64
			err := protoFields(f.data, func(v protoField) error {
				switch v.num {
				case 1:
					id = v.value
				case 4:
					return protoFields(v.data, func(l protoField) error {
						if l.num == 1 {
							fns = append(fns, l.value)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function: {id, name}
			var id uint64
			var name int64
			err := protoFields(f.data, func(v protoField) error {
				switch v.num {
				case 1:
					id = v.value
				case 2:
					name = int64(v.value)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}
