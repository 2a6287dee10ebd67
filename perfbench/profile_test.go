package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math/rand"
	"runtime/pprof"
	"testing"
	"time"

	"ibcbench/internal/scenario"
)

// shortRunSpec is a small two-chain workload for capturing a profile.
const shortRunSpec = `{"name": "profile-capture", "topology": {"preset": "two"}, "deploy": {}, "workload": {"rate": 40, "windows": 2}}`

// captureProfile records a CPU profile of short workload runs repeated
// for about half a second.
func captureProfile(t *testing.T) []byte {
	t.Helper()
	s, err := scenario.Parse([]byte(shortRunSpec))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	for end := time.Now().Add(500 * time.Millisecond); time.Now().Before(end); {
		if _, err := sc.Run(1); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	return buf.Bytes()
}

func TestParseProfileOfShortRun(t *testing.T) {
	data := captureProfile(t)
	p, err := ParseProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Samples) == 0 {
		t.Fatal("profile of a half-second run has no samples")
	}
	f, err := FoldProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	var layers, named int64
	for l, ns := range f.Layer {
		layers += ns
		if l != "other" && l != "runtime" {
			named += ns
		}
	}
	if layers != f.Total || f.Samples != int64(len(p.Samples)) {
		t.Fatalf("fold lost time: layers %d of %d ns, %d of %d samples", layers, f.Total, f.Samples, len(p.Samples))
	}
	if named == 0 {
		t.Fatalf("no samples charged to a named layer: %v", f.Layer)
	}
}

func TestParseProfileRejectsTruncated(t *testing.T) {
	data := captureProfile(t)
	for n := 0; n < len(data); n++ {
		if _, err := ParseProfile(data[:n]); err == nil {
			t.Fatalf("profile truncated to %d of %d bytes parsed without error", n, len(data))
		}
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gzipped := func(b []byte) []byte {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		zw.Write(b)
		zw.Close()
		return buf.Bytes()
	}
	cases := map[string][]byte{
		"empty":            nil,
		"text":             []byte("not a profile"),
		"gzip header only": {0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 0xff},
		"gzipped empty":    gzipped(nil),
		"gzipped group":    gzipped([]byte{0x0b}),
		"gzipped overlong": gzipped([]byte{0x12, 0xff, 0xff, 0xff, 0xff, 0x0f}),
		"gzipped bad ref":  gzipped([]byte{0x0a, 0x04, 0x08, 0x05, 0x10, 0x06, 0x32, 0x00}),
	}
	for i := 0; i < 50; i++ {
		b := make([]byte, 1+rng.Intn(512))
		rng.Read(b)
		cases[fmt.Sprintf("random %d", i)] = b
		cases[fmt.Sprintf("gzipped random %d", i)] = gzipped(b)
	}
	for name, b := range cases {
		if _, err := ParseProfile(b); err == nil {
			t.Errorf("%s: garbage parsed without error", name)
		}
	}
}

func TestDecodeProfileNeverPanicsOnCutMessages(t *testing.T) {
	zr, err := gzip.NewReader(bytes.NewReader(captureProfile(t)))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	// A cut at a field boundary can leave a well-formed shorter message,
	// so only the absence of panics is required here.
	for n := 0; n < len(raw); n++ {
		decodeProfile(raw[:n])
	}
}

func FuzzParseProfile(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x1f, 0x8b})
	f.Fuzz(func(t *testing.T, b []byte) {
		ParseProfile(b)
		decodeProfile(b)
	})
}
