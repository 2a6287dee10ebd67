package main

import (
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// internalPackages lists every directory under ../internal that holds
// non-test Go source, relative to internal/.
func internalPackages(t *testing.T) []string {
	t.Helper()
	seen := map[string]bool{}
	err := filepath.WalkDir("../internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel("../internal", filepath.Dir(path))
		if err != nil {
			return err
		}
		seen[filepath.ToSlash(rel)] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for p := range seen {
		out = append(out, p)
	}
	slices.Sort(out)
	return out
}

func TestEveryInternalPackageMapsToOneLayer(t *testing.T) {
	pkgs := internalPackages(t)
	if len(pkgs) < 20 {
		t.Fatalf("found only %d internal packages: %v", len(pkgs), pkgs)
	}
	for _, pkg := range pkgs {
		layer, ok := layerOf[pkg]
		if !ok {
			t.Errorf("internal/%s maps to no layer", pkg)
			continue
		}
		if !slices.Contains(Layers, layer) || layer == "runtime" {
			t.Errorf("internal/%s maps to %q, not a named layer", pkg, layer)
		}
		if got := layerOfStack([]string{"ibcbench/internal/" + pkg + ".F"}); got != layer {
			t.Errorf("a frame of internal/%s folds into %q, want %q", pkg, got, layer)
		}
	}
	for pkg := range layerOf {
		if !slices.Contains(pkgs, pkg) {
			t.Errorf("layer table names internal/%s, which does not exist", pkg)
		}
	}
}

func TestLayerOfStack(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"encoding/json.(*decodeState).object", "encoding/json.Unmarshal", "ibcbench/internal/ibc.(*Keeper).getJSON", "ibcbench/internal/ibc/transfer.(*Module).OnRecvPacket"}, "ibc"},
		{[]string{"crypto/internal/fips140/edwards25519.(*Point).ScalarMult", "crypto/ed25519.Verify", "ibcbench/internal/valkey.PubKey.Verify", "ibcbench/internal/tendermint/votesig.(*Cache).fullVerify"}, "valkey"},
		{[]string{"ibcbench/internal/tendermint/consensus.(*Engine).onVote.func1", "ibcbench/internal/sim.(*Scheduler).step"}, "consensus"},
		{[]string{"ibcbench/internal/metrics.Quantile[go.shape.float64]"}, "metrics"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"runtime.mallocgc", "ibcbench/perfbench.runOnce", "main.main"}, "other"},
		{nil, "runtime"},
	}
	for _, c := range cases {
		if got := layerOfStack(c.frames); got != c.want {
			t.Errorf("layerOfStack(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

func TestLibOfStack(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"encoding/json.(*decodeState).object", "ibcbench/internal/ibc.(*Keeper).getJSON"}, "json"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "encoding/json.Unmarshal"}, "alloc"},
		{[]string{"crypto/internal/fips140/sha512.block", "crypto/internal/fips140/ed25519.verify", "crypto/ed25519.Verify"}, "ed25519"},
		{[]string{"crypto/internal/fips140/sha256.blockAMD64", "crypto/sha256.Sum256"}, "sha256"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "alloc"},
		{[]string{"ibcbench/internal/sim.(*Scheduler).step"}, ""},
	}
	for _, c := range cases {
		if got := libOfStack(c.frames); got != c.want {
			t.Errorf("libOfStack(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

func TestFoldProfileSynthetic(t *testing.T) {
	p := &Profile{
		SampleTypes: []ValueType{{"samples", "count"}, {"cpu", "nanoseconds"}},
		Locations: map[uint64]Location{
			1: {Functions: []uint64{1, 2}}, // json inlined into the ibc keeper
			2: {Functions: []uint64{3}},
			3: {Functions: []uint64{4}},
		},
		FuncNames: map[uint64]string{
			1: "encoding/json.Unmarshal",
			2: "ibcbench/internal/ibc.(*Keeper).getJSON",
			3: "ibcbench/internal/relayer.(*Relayer).onFrame",
			4: "runtime.gcBgMarkWorker",
		},
		Samples: []Sample{
			{LocationIDs: []uint64{1, 2}, Values: []int64{1, 10e6}},
			{LocationIDs: []uint64{2}, Values: []int64{2, 20e6}},
			{LocationIDs: []uint64{3}, Values: []int64{3, 30e6}},
		},
	}
	f, err := FoldProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	if f.Layer["ibc"] != 10e6 || f.Layer["relayer"] != 20e6 || f.Layer["runtime"] != 30e6 {
		t.Errorf("layers = %v", f.Layer)
	}
	if f.Lib["json"] != 10e6 || f.Lib["alloc"] != 30e6 {
		t.Errorf("libs = %v", f.Lib)
	}
	if f.Total != 60e6 || f.Samples != 3 {
		t.Errorf("total %d over %d samples", f.Total, f.Samples)
	}
	p.SampleTypes = p.SampleTypes[:1]
	if _, err := FoldProfile(p); err == nil {
		t.Error("a profile without cpu/nanoseconds values folded")
	}
}
