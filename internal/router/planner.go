package router

import (
	"fmt"
	"sort"

	"newtonadmm/internal/serve"
)

// ShardRange is one replica's slice of the explicit class rows: classes
// [Low, High) of a model with TotalClasses classes (the reference class
// TotalClasses-1 is implicit and owned by no shard).
type ShardRange struct {
	Low, High int
}

// Width returns the number of explicit class rows in the range.
func (s ShardRange) Width() int { return s.High - s.Low }

// PlanShards splits the m = classes-1 explicit class rows of a model
// into n contiguous balanced ranges (the first m%n shards get one extra
// row). Every shard must be non-empty: n may not exceed m.
func PlanShards(classes, n int) ([]ShardRange, error) {
	m := classes - 1
	if n <= 0 {
		return nil, fmt.Errorf("router: shard count %d must be positive", n)
	}
	if n > m {
		return nil, fmt.Errorf("router: cannot split %d explicit class rows across %d shards", m, n)
	}
	out := make([]ShardRange, n)
	lo := 0
	for r := 0; r < n; r++ {
		width := m / n
		if r < m%n {
			width++
		}
		out[r] = ShardRange{Low: lo, High: lo + width}
		lo += width
	}
	return out, nil
}

// GroupPlan is one shard group of the R×S grid: the class-row range it
// owns and the indices (into the backend list) of the replicas that
// jointly serve it.
type GroupPlan struct {
	Range   ShardRange
	Members []int
}

// planGroupsFromMetas derives the replicated-shard placement from the
// replicas' reported metadata. Replicas reporting the same shard range
// form one group of siblings (any of them can serve the range's partial
// logits), and the group ranges must tile [0, TotalClasses-1) exactly —
// no gaps, no overlaps. Full-model replicas normalize to the whole
// explicit span, so R full copies form a single S=1 group. When the
// fleet declares more than one placement zone, every multi-member group
// must span at least two zones (the zone-spread invariant: one zone
// failure may not take a shard's coverage to zero). Groups are returned
// ordered by range.
func planGroupsFromMetas(metas []serve.ModelMeta) ([]GroupPlan, error) {
	if len(metas) == 0 {
		return nil, fmt.Errorf("router: class-sharded mode needs at least one replica")
	}
	total, features := metas[0].Normalized().TotalClasses, metas[0].Features
	byRange := make(map[ShardRange]int)
	var groups []GroupPlan
	for i, m := range metas {
		m = m.Normalized()
		if m.TotalClasses != total || m.Features != features {
			return nil, fmt.Errorf("router: replica %d shape (%d classes, %d features) != replica 0 (%d, %d)",
				i, m.TotalClasses, m.Features, total, features)
		}
		if m.ShardHigh-m.ShardLow != m.Classes-1 {
			return nil, fmt.Errorf("router: replica %d shard [%d,%d) disagrees with its %d local classes",
				i, m.ShardLow, m.ShardHigh, m.Classes)
		}
		rng := ShardRange{Low: m.ShardLow, High: m.ShardHigh}
		g, seen := byRange[rng]
		if !seen {
			g = len(groups)
			byRange[rng] = g
			groups = append(groups, GroupPlan{Range: rng})
		}
		groups[g].Members = append(groups[g].Members, i)
	}
	sort.Slice(groups, func(a, b int) bool { return groups[a].Range.Low < groups[b].Range.Low })
	want := 0
	for _, g := range groups {
		if g.Range.Low != want {
			return nil, fmt.Errorf("router: shard coverage gap or overlap at class row %d (next shard starts at %d)", want, g.Range.Low)
		}
		if g.Range.Width() <= 0 {
			return nil, fmt.Errorf("router: empty shard [%d,%d)", g.Range.Low, g.Range.High)
		}
		want = g.Range.High
	}
	if want != total-1 {
		return nil, fmt.Errorf("router: shards cover class rows [0,%d), model has %d explicit rows", want, total-1)
	}
	if err := checkZoneSpread(metas, groups); err != nil {
		return nil, err
	}
	return groups, nil
}

// checkZoneSpread enforces the zone-spread invariant: in a fleet that
// declares more than one zone, a multi-member group concentrated in a
// single zone is a construction-time error, not a warning — that
// placement silently reintroduces the single-point-of-failure the R×S
// grid exists to remove.
func checkZoneSpread(metas []serve.ModelMeta, groups []GroupPlan) error {
	zones := make(map[string]bool)
	for _, m := range metas {
		if m.Zone != "" {
			zones[m.Zone] = true
		}
	}
	if len(zones) < 2 {
		return nil
	}
	for gi, g := range groups {
		if len(g.Members) < 2 {
			continue
		}
		seen := make(map[string]bool)
		for _, i := range g.Members {
			seen[metas[i].Zone] = true
		}
		if len(seen) < 2 {
			return fmt.Errorf("router: shard group %d [%d,%d) has all %d members in zone %q; replicated shards must spread across zones",
				gi, g.Range.Low, g.Range.High, len(g.Members), metas[g.Members[0]].Zone)
		}
	}
	return nil
}
