package main

// A stdlib-only reader for the gzip-compressed profile.proto that
// runtime/pprof writes. It decodes just what the layer fold needs —
// sample types, samples, locations (with inlined lines) and function
// names — and rejects malformed input with an error, never a panic.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// maxProfileBytes caps the decompressed size so a hostile gzip stream
// cannot exhaust memory.
const maxProfileBytes = 256 << 20

// ValueType names one sample value column, e.g. ("cpu", "nanoseconds").
type ValueType struct {
	Type, Unit string
}

// Sample is one stack with its values; LocationIDs[0] is the leaf.
type Sample struct {
	LocationIDs []uint64
	Values      []int64
}

// Location is one program counter; Functions lists the frames inlined at
// it, innermost first.
type Location struct {
	Functions []uint64
}

// Profile is the decoded subset of a pprof profile.
type Profile struct {
	SampleTypes []ValueType
	Samples     []Sample
	Locations   map[uint64]Location
	// FuncNames maps function IDs to their fully qualified names.
	FuncNames map[uint64]string
}

var errTruncated = errors.New("profile: truncated message")

// ParseProfile decodes a gzip-compressed profile.proto.
func ParseProfile(data []byte) (*Profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(io.LimitReader(zr, maxProfileBytes+1))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	if len(raw) > maxProfileBytes {
		return nil, fmt.Errorf("profile: decompressed size exceeds %d bytes", maxProfileBytes)
	}
	return decodeProfile(raw)
}

// rawProfile holds string-table indexes until the table is complete
// (runtime/pprof writes it last).
type rawProfile struct {
	sampleTypes [][2]int64
	samples     []Sample
	locations   map[uint64]Location
	funcNames   map[uint64]int64
	strings     []string
}

func decodeProfile(b []byte) (*Profile, error) {
	rp := rawProfile{locations: map[uint64]Location{}, funcNames: map[uint64]int64{}}
	err := fields(b, func(num int, wire int, v uint64, msg []byte) error {
		switch num {
		case 1: // sample_type
			vt, err := decodeValueType(msg, wire)
			if err != nil {
				return err
			}
			rp.sampleTypes = append(rp.sampleTypes, vt)
		case 2: // sample
			s, err := decodeSample(msg, wire)
			if err != nil {
				return err
			}
			rp.samples = append(rp.samples, s)
		case 4: // location
			id, loc, err := decodeLocation(msg, wire)
			if err != nil {
				return err
			}
			rp.locations[id] = loc
		case 5: // function
			id, name, err := decodeFunction(msg, wire)
			if err != nil {
				return err
			}
			rp.funcNames[id] = name
		case 6: // string_table
			if wire != wireBytes {
				return fmt.Errorf("profile: string_table has wire type %d", wire)
			}
			rp.strings = append(rp.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rp.resolve()
}

func (rp *rawProfile) str(i int64) (string, error) {
	if i < 0 || i >= int64(len(rp.strings)) {
		return "", fmt.Errorf("profile: string index %d outside table of %d", i, len(rp.strings))
	}
	return rp.strings[i], nil
}

// resolve turns string indexes into names and checks every reference.
func (rp *rawProfile) resolve() (*Profile, error) {
	if len(rp.strings) == 0 || rp.strings[0] != "" {
		return nil, errors.New("profile: string table must start with the empty string")
	}
	if len(rp.sampleTypes) == 0 {
		return nil, errors.New("profile: no sample types")
	}
	p := &Profile{Locations: rp.locations, FuncNames: make(map[uint64]string, len(rp.funcNames))}
	for _, vt := range rp.sampleTypes {
		typ, err := rp.str(vt[0])
		if err != nil {
			return nil, err
		}
		unit, err := rp.str(vt[1])
		if err != nil {
			return nil, err
		}
		p.SampleTypes = append(p.SampleTypes, ValueType{typ, unit})
	}
	for id, idx := range rp.funcNames {
		name, err := rp.str(idx)
		if err != nil {
			return nil, err
		}
		p.FuncNames[id] = name
	}
	for _, loc := range rp.locations {
		for _, fid := range loc.Functions {
			if _, ok := p.FuncNames[fid]; !ok {
				return nil, fmt.Errorf("profile: location references unknown function %d", fid)
			}
		}
	}
	for _, s := range rp.samples {
		if len(s.Values) != len(p.SampleTypes) {
			return nil, fmt.Errorf("profile: sample has %d values for %d sample types", len(s.Values), len(p.SampleTypes))
		}
		for _, id := range s.LocationIDs {
			if _, ok := p.Locations[id]; !ok {
				return nil, fmt.Errorf("profile: sample references unknown location %d", id)
			}
		}
	}
	p.Samples = rp.samples
	return p, nil
}

func decodeValueType(b []byte, wire int) ([2]int64, error) {
	var vt [2]int64
	if wire != wireBytes {
		return vt, fmt.Errorf("profile: value type has wire type %d", wire)
	}
	err := fields(b, func(num, wire int, v uint64, _ []byte) error {
		if num == 1 || num == 2 {
			if wire != wireVarint {
				return fmt.Errorf("profile: value type field %d has wire type %d", num, wire)
			}
			vt[num-1] = int64(v)
		}
		return nil
	})
	return vt, err
}

func decodeSample(b []byte, wire int) (Sample, error) {
	var s Sample
	if wire != wireBytes {
		return s, fmt.Errorf("profile: sample has wire type %d", wire)
	}
	err := fields(b, func(num, wire int, v uint64, msg []byte) error {
		switch num {
		case 1: // location_id
			return appendUints(&s.LocationIDs, wire, v, msg)
		case 2: // value
			var vals []uint64
			if err := appendUints(&vals, wire, v, msg); err != nil {
				return err
			}
			for _, x := range vals {
				s.Values = append(s.Values, int64(x))
			}
		}
		return nil
	})
	return s, err
}

func decodeLocation(b []byte, wire int) (uint64, Location, error) {
	var id uint64
	var loc Location
	if wire != wireBytes {
		return 0, loc, fmt.Errorf("profile: location has wire type %d", wire)
	}
	err := fields(b, func(num, wire int, v uint64, msg []byte) error {
		switch num {
		case 1:
			if wire != wireVarint {
				return fmt.Errorf("profile: location id has wire type %d", wire)
			}
			id = v
		case 4: // line
			if wire != wireBytes {
				return fmt.Errorf("profile: line has wire type %d", wire)
			}
			var fid uint64
			err := fields(msg, func(num, wire int, v uint64, _ []byte) error {
				if num == 1 {
					if wire != wireVarint {
						return fmt.Errorf("profile: line function id has wire type %d", wire)
					}
					fid = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			loc.Functions = append(loc.Functions, fid)
		}
		return nil
	})
	if err == nil && id == 0 {
		err = errors.New("profile: location without id")
	}
	return id, loc, err
}

func decodeFunction(b []byte, wire int) (uint64, int64, error) {
	var id uint64
	var name int64
	if wire != wireBytes {
		return 0, 0, fmt.Errorf("profile: function has wire type %d", wire)
	}
	err := fields(b, func(num, wire int, v uint64, _ []byte) error {
		if num == 1 || num == 2 {
			if wire != wireVarint {
				return fmt.Errorf("profile: function field %d has wire type %d", num, wire)
			}
			if num == 1 {
				id = v
			} else {
				name = int64(v)
			}
		}
		return nil
	})
	if err == nil && id == 0 {
		err = errors.New("profile: function without id")
	}
	return id, name, err
}

// appendUints decodes a repeated varint field in either encoding:
// runtime/pprof packs long lists and writes short ones element by
// element.
func appendUints(dst *[]uint64, wire int, v uint64, msg []byte) error {
	switch wire {
	case wireVarint:
		*dst = append(*dst, v)
		return nil
	case wireBytes:
		for len(msg) > 0 {
			x, n := binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			*dst = append(*dst, x)
			msg = msg[n:]
		}
		return nil
	}
	return fmt.Errorf("profile: repeated integer has wire type %d", wire)
}

// Protobuf wire types this reader accepts.
const (
	wireVarint  = 0
	wireFixed64 = 1
	wireBytes   = 2
	wireFixed32 = 5
)

// fields walks one message's fields, handing each to fn with its number,
// wire type, and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped; groups and unknown wire types are
// errors.
func fields(b []byte, fn func(num, wire int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		tag, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := tag>>3, int(tag&7)
		if num == 0 || num > 1<<29 {
			return fmt.Errorf("profile: bad field number %d", num)
		}
		var v uint64
		var msg []byte
		switch wire {
		case wireVarint:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errTruncated
			}
			msg = b[n : n+int(l)]
			b = b[n+int(l):]
		case wireFixed64, wireFixed32:
			w := 8
			if wire == wireFixed32 {
				w = 4
			}
			if len(b) < w {
				return errTruncated
			}
			b = b[w:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(int(num), wire, v, msg); err != nil {
			return err
		}
	}
	return nil
}
