package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"testing"

	"ibcbench/internal/scenario"
)

func TestWorkloadSpecsParseStrictly(t *testing.T) {
	for _, name := range Workloads {
		data, err := LoadSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		s, err := scenario.Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name != name {
			t.Errorf("spec file %s names scenario %q", name, s.Name)
		}
		canon, err := scenario.Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canon, data) {
			t.Errorf("%s is not in canonical form:\n%s", name, canon)
		}
		typo := bytes.Replace(data, []byte(`"workload": {`), []byte(`"workload": {"rates": 1,`), 1)
		if _, err := scenario.Parse(typo); err == nil {
			t.Errorf("%s: an unknown field parsed", name)
		}
		if _, err := scenario.Compile(s); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := LoadSpec("hub3"); err == nil {
		t.Error("an unknown workload loaded")
	}
}

func TestWorkloadSeedReachesTopo(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload three times")
	}
	for _, name := range Workloads {
		data, _ := LoadSpec(name)
		sc, _, err := setUp(data, 1)
		if err != nil {
			t.Fatal(err)
		}
		digest := func(seed int64) [sha256.Size]byte {
			res, err := sc.Run(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			enc, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			return sha256.Sum256(enc)
		}
		a, again, b := digest(1), digest(1), digest(2)
		if a != again {
			t.Errorf("%s: same seed gave different result digests", name)
		}
		if a == b {
			t.Errorf("%s: seeds 1 and 2 gave identical result digests", name)
		}
	}
}
