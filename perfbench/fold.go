package main

// The layer fold: every CPU sample is charged to the innermost frame of
// an ibcbench/internal package on its stack, so JSON decoding and
// ed25519 work count against the layer that asked for them. Samples with
// no repo frame (GC workers, the scheduler) go to "runtime". A second,
// independent split charges each sample to the innermost frame of one of
// a few leaf libraries.

import (
	"fmt"
	"strings"
)

const internalPrefix = "ibcbench/internal/"

// Layers is the fixed set of named layers, in report order.
var Layers = []string{
	"sim", "netem", "consensus", "votesig", "valkey", "mempool", "rpc", "store",
	"app", "merkle", "ibc", "transfer", "pfm", "denom",
	"eventindex", "relayer", "workload", "metrics", "chain", "topo", "obs",
	"other", "runtime",
}

// layerOf maps each package under internal/ (path relative to it) to its
// layer. Packages that a benchmark run does not exercise, or that only
// serve the CLI, fold into "other".
var layerOf = map[string]string{
	"sim":                  "sim",
	"simconf":              "sim",
	"netem":                "netem",
	"geo":                  "netem",
	"tendermint/consensus": "consensus",
	"tendermint/types":     "consensus",
	"tendermint/votesig":   "votesig",
	"valkey":               "valkey",
	"tendermint/mempool":   "mempool",
	"tendermint/rpc":       "rpc",
	"tendermint/store":     "store",
	"abci":                 "app",
	"app":                  "app",
	"merkle":               "merkle",
	"ibc":                  "ibc",
	"ibc/transfer":         "transfer",
	"ibc/pfm":              "pfm",
	"ibc/denom":            "denom",
	"eventindex":           "eventindex",
	"relayer":              "relayer",
	"workload":             "workload",
	"metrics":              "metrics",
	"chain":                "chain",
	"topo":                 "topo",
	"chaos":                "topo",
	"obs":                  "obs",
	"scenario":             "other",
	"experiments":          "other",
	"framework":            "other",
	"resultdiff":           "other",
	"serve":                "other",
	"store":                "other",
	"tracecheck":           "other",
	"traceview":            "other",
}

// Libs is the leaf-library split, in report order.
var Libs = []string{"json", "ed25519", "sha256", "alloc"}

// libPrefixes maps function-name prefixes to their leaf library. The
// alloc entries cover allocation, the garbage collector and sweeping.
var libPrefixes = []struct{ prefix, lib string }{
	{"encoding/json.", "json"},
	{"crypto/ed25519.", "ed25519"},
	{"crypto/internal/fips140/ed25519.", "ed25519"},
	{"crypto/internal/fips140/edwards25519", "ed25519"},
	{"crypto/internal/edwards25519", "ed25519"},
	{"crypto/sha256.", "sha256"},
	{"crypto/internal/fips140/sha256.", "sha256"},
	{"runtime.mallocgc", "alloc"},
	{"runtime.newobject", "alloc"},
	{"runtime.growslice", "alloc"},
	{"runtime.makeslice", "alloc"},
	{"runtime.makemap", "alloc"},
	{"runtime.gc", "alloc"},
	{"runtime.bgsweep", "alloc"},
	{"runtime.bgscavenge", "alloc"},
	{"runtime.sweepone", "alloc"},
	{"runtime.scanobject", "alloc"},
	{"runtime.markroot", "alloc"},
	{"runtime.(*mheap)", "alloc"},
	{"runtime.(*mcache)", "alloc"},
	{"runtime.(*mcentral)", "alloc"},
}

// Fold is a profile's CPU time split by layer and by leaf library, in
// nanoseconds.
type Fold struct {
	Layer   map[string]int64
	Lib     map[string]int64
	Total   int64
	Samples int64
}

// Add accumulates another fold.
func (f *Fold) Add(o Fold) {
	if f.Layer == nil {
		f.Layer, f.Lib = map[string]int64{}, map[string]int64{}
	}
	for k, v := range o.Layer {
		f.Layer[k] += v
	}
	for k, v := range o.Lib {
		f.Lib[k] += v
	}
	f.Total += o.Total
	f.Samples += o.Samples
}

// FoldProfile splits a CPU profile's time into layers and libraries.
func FoldProfile(p *Profile) (Fold, error) {
	col := -1
	for i, st := range p.SampleTypes {
		if st.Type == "cpu" && st.Unit == "nanoseconds" {
			col = i
		}
	}
	if col < 0 {
		return Fold{}, fmt.Errorf("profile: no cpu/nanoseconds sample type in %v", p.SampleTypes)
	}
	f := Fold{Layer: map[string]int64{}, Lib: map[string]int64{}}
	for _, s := range p.Samples {
		ns := s.Values[col]
		frames := p.frames(s)
		f.Layer[layerOfStack(frames)] += ns
		if lib := libOfStack(frames); lib != "" {
			f.Lib[lib] += ns
		}
		f.Total += ns
		f.Samples++
	}
	return f, nil
}

// frames lists a sample's function names, leaf first.
func (p *Profile) frames(s Sample) []string {
	var out []string
	for _, id := range s.LocationIDs {
		for _, fid := range p.Locations[id].Functions {
			out = append(out, p.FuncNames[fid])
		}
	}
	return out
}

// layerOfStack charges a stack to its innermost internal package; a
// stack whose only repo frames are the benchmark's own is "other".
func layerOfStack(frames []string) string {
	layer := "runtime"
	for _, fn := range frames {
		if pkg, ok := internalPackage(fn); ok {
			if l, ok := layerOf[pkg]; ok {
				return l
			}
			return "other"
		}
		if strings.HasPrefix(fn, "ibcbench/") {
			layer = "other"
		}
	}
	return layer
}

// internalPackage extracts the internal/-relative package path of a
// function name such as "ibcbench/internal/ibc/transfer.(*Module).Send".
// Package directories hold no dots, so the first dot ends the path.
func internalPackage(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return "", false
	}
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		rest = rest[:i]
	}
	return rest, true
}

// libOfStack charges a stack to its innermost leaf-library frame ("" if
// none).
func libOfStack(frames []string) string {
	for _, fn := range frames {
		for _, lp := range libPrefixes {
			if strings.HasPrefix(fn, lp.prefix) {
				return lp.lib
			}
		}
	}
	return ""
}
