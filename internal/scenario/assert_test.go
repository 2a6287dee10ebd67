package scenario

import (
	"strings"
	"testing"
	"time"
)

// TestStuckPacketsDetected plants a permanent whole-link partition
// under live traffic: commitments survive to the deadline and the
// stuck-packet invariant must fire (the planted-violation mechanism the
// chaos-search fixture relies on).
func TestStuckPacketsDetected(t *testing.T) {
	spec := Spec{
		Name:     "stuck",
		Topology: TopologySpec{Preset: "two"},
		Workload: WorkloadSpec{Rate: 1, Windows: 1},
		Chaos: []EventSpec{
			{At: Duration(500 * time.Millisecond), Kind: "partition", Edge: 0},
		},
		Seed:  5,
		Until: Duration(90 * time.Second),
	}
	rep, err := Run(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed() {
		t.Fatal("permanent partition produced no violations")
	}
	found := false
	for _, v := range rep.Violations {
		if v.Assertion == AssertNoStuckPackets {
			found = true
			if !strings.Contains(v.Detail, "stuck at deadline") {
				t.Errorf("unexpected detail: %s", v.Detail)
			}
		}
	}
	if !found {
		t.Errorf("no %s violation among %v", AssertNoStuckPackets, rep.Violations)
	}
}

// TestCleanRunHoldsAllAssertions: an unfaulted two-chain run settles
// every packet and conserves voucher supply.
func TestCleanRunHoldsAllAssertions(t *testing.T) {
	spec := Spec{
		Name:     "clean",
		Topology: TopologySpec{Preset: "two"},
		Workload: WorkloadSpec{Rate: 2, Windows: 1},
		Seed:     11,
	}
	rep, err := Run(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation on clean run: %s", v)
	}
	if len(rep.Assertions) != len(DefaultAssertions()) {
		t.Errorf("default assertion set not resolved: %v", rep.Assertions)
	}
}

// TestTimeoutRefundsHold: the timeoutstorm spec forces mid-route hop
// timeouts; once quiescent, every refund must have unwound (and the
// conservation invariant must survive the unwinding).
func TestTimeoutRefundsHold(t *testing.T) {
	rep, err := Run(catalogueSpec(t, "timeoutstorm"), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
}

// TestConservationSeesVouchers: after a forwarded multi-hop run the
// final chain holds nested vouchers; the conservation walk must resolve
// their traces through both links without reporting violations (a
// mis-mapped counterparty channel would flag every voucher).
func TestConservationSeesVouchers(t *testing.T) {
	rep, err := Run(catalogueSpec(t, "pfmroute"), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.Result.RoutesCompleted != 2 {
		t.Errorf("routes completed = %d, want 2", rep.Result.RoutesCompleted)
	}
}
