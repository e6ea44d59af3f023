package service

import (
	"strings"
	"testing"

	"matstore/internal/operators"
	"matstore/internal/storage"
)

// TestCopartitionErrorNamesMismatch pins the diagnostic text of every
// incompatible-right-side shape, including the shard-count mismatch that a
// single valid manifest cannot produce (both schemes must match its shard
// count) but a federation of differently-generated layouts could.
func TestCopartitionErrorNamesMismatch(t *testing.T) {
	keyed := func(col string, shards int) storage.ShardPlacement {
		return storage.ShardPlacement{Sharded: true, Partition: &storage.PartitionScheme{
			Column: col, Hash: storage.PartitionHashName, Shards: shards,
		}}
	}
	req := JoinRequest{Left: "orders", Right: "customer", LeftKey: "custkey", RightKey: "custkey"}

	cases := []struct {
		name     string
		left     storage.ShardPlacement
		right    storage.ShardPlacement
		wantSubs []string
	}{
		{
			"shard counts differ",
			keyed("custkey", 2), keyed("custkey", 4),
			[]string{"shard counts differ (2 vs 4)", `"orders" is partitioned on "custkey" into 2 shards`},
		},
		{
			"wrong partition column",
			keyed("shipdate", 2), keyed("custkey", 2),
			[]string{`"orders" is partitioned on "shipdate", not its join key "custkey"`},
		},
		{
			"range-sharded right",
			keyed("custkey", 2), storage.ShardPlacement{Sharded: true},
			[]string{`"customer" is range-sharded with no partition key`},
		},
		{
			"replicated left",
			storage.ShardPlacement{}, keyed("nationcode", 2),
			[]string{`"orders" is replicated`, `"customer" is partitioned on "nationcode", not its join key "custkey"`},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			msg := copartitionError(req, tc.left, tc.right).Error()
			for _, sub := range append(tc.wantSubs, "-partition-key orders.custkey,customer.custkey") {
				if !strings.Contains(msg, sub) {
					t.Errorf("error %q\nmissing %q", msg, sub)
				}
			}
		})
	}
}

// TestMergedCounters pins how every query merge kind folds the shard
// partials' execution counters, which the differential suites (rows, row
// count and checksum only) do not see: workers, morsels, estimated cost and
// the join/spill counters add, queue time takes the max, the cache-hit flags
// AND and the spill flag ORs.
func TestMergedCounters(t *testing.T) {
	// counters returns a partial carrying only execution counters; i varies
	// them per shard so sums, maxima and flag folds are all observable.
	counters := func(i int, join bool) QueryResponse {
		p := QueryResponse{
			Columns:        []string{"k", "v"},
			Strategy:       "lm-parallel",
			Workers:        1 + i,
			Morsels:        10 * (1 + i),
			Queued:         []int64{500, 900, 200}[i],
			EstCostUS:      1.5 * float64(1+i),
			ResultCacheHit: true,
			PlanCacheHit:   i != 1,
			BuildCacheHit:  i != 2,
		}
		if join {
			p.Partitions = 4
			p.Probes = int64(100 * (1 + i))
			p.BuildTuples = int64(7 * (1 + i))
			p.DeferredFetches = int64(3 * (1 + i))
			p.ReservedBytes = int64(1000 * (1 + i))
			p.Spilled = i == 1
			p.SpilledPartitions = i
			p.SpillBytes = int64(50 * i)
		}
		return p
	}
	parts := func(join bool, fill func(i int, p *QueryResponse)) []*QueryResponse {
		out := make([]*QueryResponse, 3)
		for i := range out {
			p := counters(i, join)
			fill(i, &p)
			out[i] = &p
		}
		return out
	}
	cases := []struct {
		kind  string
		join  bool
		merge func() *QueryResponse
	}{
		{"concat", true, func() *QueryResponse {
			return mergeRowParts(parts(true, func(i int, p *QueryResponse) {
				p.Rows = [][]int64{{int64(i), 1}}
				p.RowCount, p.Checksum = 1, int64(i+1)
			}), -1)
		}},
		{"rowid_kway", true, func() *QueryResponse {
			return mergeRowIDParts(parts(true, func(i int, p *QueryResponse) {
				p.Rows = [][]int64{{int64(i), 1}, {int64(i + 3), 1}}
				p.RowIDs = []int64{int64(i), int64(i + 3)}
				p.RowCount, p.Checksum = 2, int64(i+5)
			}), -1)
		}},
		{"finalized_agg", false, func() *QueryResponse {
			return mergeFinalizedAggParts(parts(false, func(i int, p *QueryResponse) {
				p.Rows = [][]int64{{int64(2 - i), 10}}
				p.RowCount, p.Checksum = 1, int64(12-i)
			}), -1)
		}},
		{"agg_statistics", false, func() *QueryResponse {
			return mergeAggParts(parts(false, func(i int, p *QueryResponse) {
				p.Groups = []operators.GroupStats{{Key: int64(i % 2), Sum: 5, Count: 1, Min: 5, Max: 5}}
			}), operators.AggSum, -1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.kind, func(t *testing.T) {
			got := tc.merge()
			if got.Workers != 6 || got.Morsels != 60 || got.Queued != 900 || got.EstCostUS != 9 {
				t.Errorf("workers/morsels/queued/est_cost = %d/%d/%d/%g, want 6/60/900/9",
					got.Workers, got.Morsels, got.Queued, got.EstCostUS)
			}
			if !got.ResultCacheHit || got.PlanCacheHit || got.BuildCacheHit {
				t.Errorf("cache hits result/plan/build = %v/%v/%v, want true/false/false",
					got.ResultCacheHit, got.PlanCacheHit, got.BuildCacheHit)
			}
			want := QueryResponse{}
			if tc.join {
				want = QueryResponse{Partitions: 12, Probes: 600, BuildTuples: 42, DeferredFetches: 18,
					ReservedBytes: 6000, Spilled: true, SpilledPartitions: 3, SpillBytes: 150}
			}
			if got.Partitions != want.Partitions || got.Probes != want.Probes ||
				got.BuildTuples != want.BuildTuples || got.DeferredFetches != want.DeferredFetches ||
				got.ReservedBytes != want.ReservedBytes || got.Spilled != want.Spilled ||
				got.SpilledPartitions != want.SpilledPartitions || got.SpillBytes != want.SpillBytes {
				t.Errorf("join/spill counters %+v, want %+v", got, want)
			}
			if got.Strategy != "lm-parallel" || len(got.Columns) != 2 {
				t.Errorf("strategy %q columns %v not taken from the first partial", got.Strategy, got.Columns)
			}
		})
	}
}
