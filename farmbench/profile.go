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

// profiledModules are the simulator packages, plus the Go runtime, that
// a CPU profile's samples are attributed to.
var profiledModules = []string{
	"cluster", "placement", "sim", "recovery", "faults", "topology", "workload",
	"metrics", "obs", "trace", "forensics", "core", "runtime",
}

// moduleOf maps a profiled function name to its module: the package
// under repro/internal, or "runtime" for the Go runtime. Anything else
// (the standard library, this benchmark) maps to "".
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			return rest[:i]
		}
		return rest
	}
	for _, p := range []string{"runtime.", "runtime/", "internal/runtime/"} {
		if strings.HasPrefix(fn, p) {
			return "runtime"
		}
	}
	return ""
}

// cpuShares reads a runtime/pprof CPU profile (gzipped profile.proto)
// and returns each module's share of the sampled CPU time, charging a
// sample's whole value to the module of its leaf frame: the innermost
// function of its first location, inlined callees included.
func cpuShares(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		types     [][]byte // sample_type messages
		samples   [][]byte
		locLeafFn = map[uint64]uint64{} // location id -> leaf function id
		fnNameIdx = map[uint64]int64{}  // function id -> string index
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1:
			types = append(types, b)
		case 2:
			samples = append(samples, b)
		case 4:
			var id, leaf uint64
			seen := false
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && !seen:
					seen = true
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							leaf = v
						}
						return nil
					})
				}
				return nil
			})
			locLeafFn[id] = leaf
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnNameIdx[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Charge the CPU-time value ("cpu" sample type), else the last one.
	valueIdx := len(types) - 1
	for i, t := range types {
		err := eachField(t, func(num int, v uint64, _ []byte) error {
			if num == 1 && int(v) < len(strs) && strs[v] == "cpu" {
				valueIdx = i
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	byModule := map[string]float64{}
	var total float64
	for _, s := range samples {
		var locs, vals []uint64
		err := eachField(s, func(num int, v uint64, b []byte) error {
			switch num {
			case 1:
				return appendVarints(&locs, v, b)
			case 2:
				return appendVarints(&vals, v, b)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if valueIdx < 0 || valueIdx >= len(vals) {
			continue
		}
		val := float64(int64(vals[valueIdx]))
		total += val
		if len(locs) == 0 {
			continue
		}
		if idx, ok := fnNameIdx[locLeafFn[locs[0]]]; ok && idx >= 0 && int(idx) < len(strs) {
			byModule[moduleOf(strs[idx])] += val
		}
	}
	shares := make(map[string]float64, len(profiledModules))
	for _, m := range profiledModules {
		if total > 0 {
			shares[m] = byModule[m] / total
		} else {
			shares[m] = 0
		}
	}
	return shares, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped; profile.proto uses none that matter.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", key&7)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: one value
// unpacked (data nil), or a packed run of them.
func appendVarints(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
