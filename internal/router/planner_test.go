package router

import (
	"math/rand"
	"testing"

	"newtonadmm/internal/serve"
)

// TestPlanShardsBalancedSplit pins PlanShards' split properties across
// shapes, including both degenerate corners: the single-shard plan whose
// one range has maximum width (all explicit rows), and the n == m plan
// where every shard is width 1.
func TestPlanShardsBalancedSplit(t *testing.T) {
	// Maximum-width range: one shard owns every explicit row.
	got, err := PlanShards(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != (ShardRange{0, 9}) {
		t.Errorf("PlanShards(10, 1) = %v, want [{0 9}]", got)
	}
	// The smallest legal grid: 2 classes = 1 explicit row, 1 shard.
	got, err = PlanShards(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != (ShardRange{0, 1}) {
		t.Errorf("PlanShards(2, 1) = %v, want [{0 1}]", got)
	}

	for _, tc := range []struct{ classes, n int }{
		{10, 4}, {10, 9}, {5, 2}, {11, 3}, {257, 16},
	} {
		ranges, err := PlanShards(tc.classes, tc.n)
		if err != nil {
			t.Fatalf("PlanShards(%d, %d): %v", tc.classes, tc.n, err)
		}
		m := tc.classes - 1
		lo, minW, maxW := 0, m, 0
		for _, r := range ranges {
			if r.Low != lo {
				t.Fatalf("PlanShards(%d, %d) = %v: gap/overlap at %d", tc.classes, tc.n, ranges, lo)
			}
			if w := r.Width(); w <= 0 {
				t.Fatalf("PlanShards(%d, %d) produced empty shard %v", tc.classes, tc.n, r)
			} else {
				if w < minW {
					minW = w
				}
				if w > maxW {
					maxW = w
				}
			}
			lo = r.High
		}
		if lo != m {
			t.Errorf("PlanShards(%d, %d) covers [0,%d), want [0,%d)", tc.classes, tc.n, lo, m)
		}
		if maxW-minW > 1 {
			t.Errorf("PlanShards(%d, %d) widths range [%d,%d], want balanced within 1", tc.classes, tc.n, minW, maxW)
		}
	}
}

func TestPlanShardsErrors(t *testing.T) {
	if _, err := PlanShards(10, 0); err == nil {
		t.Error("PlanShards(10, 0) accepted a non-positive shard count")
	}
	if _, err := PlanShards(10, -1); err == nil {
		t.Error("PlanShards(10, -1) accepted a negative shard count")
	}
	// n may not exceed the m = classes-1 explicit rows.
	if _, err := PlanShards(5, 5); err == nil {
		t.Error("PlanShards(5, 5) accepted 5 shards for 4 explicit rows")
	}
	if _, err := PlanShards(2, 2); err == nil {
		t.Error("PlanShards(2, 2) accepted 2 shards for 1 explicit row")
	}
}

// TestPlanGroupsDegenerateGrids covers the 1x1 corners of the planner:
// a single replica serving a single maximum-width shard is a legal grid,
// and R siblings on that same full span form one group — the class-mode
// topology degenerating to replica-mode semantics.
func TestPlanGroupsDegenerateGrids(t *testing.T) {
	full := serve.ModelMeta{
		Classes: 5, Features: 8, Version: 1,
		ShardCount: 1, ShardLow: 0, ShardHigh: 4, TotalClasses: 5,
	}
	plans, err := planGroupsFromMetas([]serve.ModelMeta{full})
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 1 || plans[0].Range != (ShardRange{0, 4}) || len(plans[0].Members) != 1 {
		t.Errorf("single replica, single max-width shard: %+v, want one [0,4) group with one member", plans)
	}

	plans, err = planGroupsFromMetas([]serve.ModelMeta{full, full, full})
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 1 || len(plans[0].Members) != 3 {
		t.Errorf("three max-width siblings: %d groups x %d members, want 1x3", len(plans), len(plans[0].Members))
	}
}

// TestPlanGroupsPermutedMetas pins order-independence: feeding the same
// fleet metas in any order must produce the identical plan — same group
// ranges in the same (range-sorted) order, and each group's members
// pointing at metas with exactly that group's shard range. Membership is
// positional, so the index values move with the permutation, but the
// induced placement may not.
func TestPlanGroupsPermutedMetas(t *testing.T) {
	// R=2 x S=3 over 7 classes (rows [0,2) [2,4) [4,6)), two zones.
	base := []serve.ModelMeta{
		gridMeta(0, 2, 7, 8, "zone-a"), gridMeta(0, 2, 7, 8, "zone-b"),
		gridMeta(2, 4, 7, 8, "zone-a"), gridMeta(2, 4, 7, 8, "zone-b"),
		gridMeta(4, 6, 7, 8, "zone-a"), gridMeta(4, 6, 7, 8, "zone-b"),
	}
	want, err := planGroupsFromMetas(base)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		metas := make([]serve.ModelMeta, len(base))
		copy(metas, base)
		rng.Shuffle(len(metas), func(i, j int) { metas[i], metas[j] = metas[j], metas[i] })

		got, err := planGroupsFromMetas(metas)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d groups, want %d", trial, len(got), len(want))
		}
		for g := range got {
			if got[g].Range != want[g].Range {
				t.Errorf("trial %d group %d range = %v, want %v", trial, g, got[g].Range, want[g].Range)
			}
			if len(got[g].Members) != len(want[g].Members) {
				t.Errorf("trial %d group %d has %d members, want %d", trial, g, len(got[g].Members), len(want[g].Members))
			}
			zones := map[string]bool{}
			for _, i := range got[g].Members {
				m := metas[i]
				if (ShardRange{m.ShardLow, m.ShardHigh}) != got[g].Range {
					t.Errorf("trial %d group %d member %d serves [%d,%d), group range is %v",
						trial, g, i, m.ShardLow, m.ShardHigh, got[g].Range)
				}
				zones[m.Zone] = true
			}
			if len(zones) != 2 {
				t.Errorf("trial %d group %d spans %d zones, want 2", trial, g, len(zones))
			}
		}
	}
}
