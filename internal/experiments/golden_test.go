package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestPaperFiguresGolden pins the JSON of every two-chain paper-figure
// driver at small sizes, byte for byte: the virtual clock makes each
// result a pure function of its seed. Refresh with UPDATE_GOLDEN=1 after
// an intentional change.
func TestPaperFiguresGolden(t *testing.T) {
	figures := struct {
		Fig12          Fig12Result
		Fig13          []Fig13Row
		Gas            []GasRow
		WebSocketLimit WebSocketResult
		RelayerSweep   []RelayerPoint
		Tendermint     TendermintResult
	}{
		Fig12:          Fig12(300, 42),
		Fig13:          Fig13(300, []int{1, 4}, 7),
		Gas:            GasTable(3),
		WebSocketLimit: WebSocketLimit(5, 100, 60),
		RelayerSweep:   RelayerSweep(Options{Seeds: 1, Rates: []int{60}, Windows: 5, Workers: 1}, 2, true),
		Tendermint:     Tendermint(Options{Seeds: 1, Rates: []int{500}, Windows: 3, Workers: 1}),
	}
	got, err := json.MarshalIndent(figures, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "paper_figures.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("paper-figure output differs from %s (run UPDATE_GOLDEN on it):\n%s", golden, got)
	}
}
