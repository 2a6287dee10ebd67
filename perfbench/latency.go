package main

// Virtual-clock latency metrics read from the per-edge trackers: transfer
// latency percentiles and the paper's Fig. 12 per-step split.

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"ibcbench/internal/metrics"
)

// minTail is the fewest samples that must lie beyond a reported
// quantile, so that a p99 never rests on a handful of packets.
const minTail = 10

// Percentile is one quantile together with the sample count behind it.
type Percentile struct {
	Value float64
	N     int
}

// PercentileOf interpolates the q-th quantile of ascending samples. It
// refuses a quantile with fewer than minTail samples beyond it.
func PercentileOf(sorted []float64, q float64) (Percentile, error) {
	n := len(sorted)
	if beyond := math.Floor(float64(n) * (1 - q)); q < 0 || q > 1 || beyond < minTail {
		return Percentile{}, fmt.Errorf("p%g over %d samples leaves fewer than %d beyond it", q*100, n, minTail)
	}
	return Percentile{Value: metrics.Quantile(sorted, q), N: n}, nil
}

// TransferLatencies returns, over every tracker, the virtual seconds from
// transfer broadcast to ack confirmation of each completed packet, in
// ascending order.
func TransferLatencies(trackers []*metrics.Tracker) []float64 {
	var out []float64
	for _, t := range trackers {
		for _, k := range t.Keys() {
			start, ok1 := t.StepTime(k, metrics.StepTransferBroadcast)
			end, ok2 := t.StepTime(k, metrics.StepAckConfirmation)
			if ok1 && ok2 {
				out = append(out, (end - start).Seconds())
			}
		}
	}
	sort.Float64s(out)
	return out
}

// StepName renders a tracker step as a metric name suffix:
// "Recv msg. extraction" becomes "recv_msg_extraction".
func StepName(s metrics.Step) string {
	name := strings.ToLower(strings.ReplaceAll(s.String(), ".", ""))
	return strings.ReplaceAll(name, " ", "_")
}

// StepMedians returns, for each step after the first, the median virtual
// seconds since the previous step over completed packets that recorded
// both, keyed by StepName.
func StepMedians(trackers []*metrics.Tracker) map[string]float64 {
	gaps := make([][]float64, metrics.NumSteps+1)
	for _, t := range trackers {
		for _, k := range t.Keys() {
			if t.StatusOf(k) != metrics.StatusCompleted {
				continue
			}
			for s := metrics.StepTransferBroadcast + 1; s <= metrics.StepAckConfirmation; s++ {
				prev, ok1 := t.StepTime(k, s-1)
				at, ok2 := t.StepTime(k, s)
				if ok1 && ok2 {
					gaps[s] = append(gaps[s], (at - prev).Seconds())
				}
			}
		}
	}
	out := make(map[string]float64, metrics.NumSteps-1)
	for s := metrics.StepTransferBroadcast + 1; s <= metrics.StepAckConfirmation; s++ {
		sort.Float64s(gaps[s])
		out[StepName(s)] = metrics.Quantile(gaps[s], 0.5)
	}
	return out
}
