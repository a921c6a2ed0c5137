#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cloud/cloud_store.h"
#include "common/random.h"
#include "core/graph_db.h"

namespace bg3::core {
namespace {

struct DbFixture {
  explicit DbFixture(GraphDBOptions opts = {}, size_t extent_capacity = 1 << 16) {
    cloud::CloudStoreOptions copts;
    copts.extent_capacity = extent_capacity;
    store = std::make_unique<cloud::CloudStore>(copts);
    if (opts.time_source == nullptr) opts.time_source = &clock;
    db = std::make_unique<GraphDB>(store.get(), opts);
  }
  cloud::ManualTimeSource clock;
  std::unique_ptr<cloud::CloudStore> store;
  std::unique_ptr<GraphDB> db;
};

TEST(OptionsTest, ValidateCatchesBadRanges) {
  GraphDBOptions opts;
  EXPECT_TRUE(opts.Validate().ok());
  opts.gc_min_fragmentation = 2.0;
  EXPECT_TRUE(opts.Validate().IsInvalidArgument());
  opts = GraphDBOptions{};
  opts.forest.owner_shards = 0;
  EXPECT_TRUE(opts.Validate().IsInvalidArgument());
}

TEST(OptionsTest, PolicyFactoryCoversAllKinds) {
  EXPECT_EQ(MakeGcPolicy(GcPolicyKind::kNone, 0.1), nullptr);
  EXPECT_EQ(MakeGcPolicy(GcPolicyKind::kFifo, 0.1)->name(), "fifo");
  EXPECT_EQ(MakeGcPolicy(GcPolicyKind::kDirtyRatio, 0.1)->name(),
            "dirty-ratio");
  EXPECT_EQ(MakeGcPolicy(GcPolicyKind::kWorkloadAware, 0.1)->name(),
            "workload-aware");
}

TEST(GraphDBTest, VertexRoundTrip) {
  DbFixture f;
  ASSERT_TRUE(f.db->AddVertex(42, "user-properties").ok());
  EXPECT_EQ(f.db->GetVertex(42).value(), "user-properties");
  EXPECT_TRUE(f.db->GetVertex(43).status().IsNotFound());
}

TEST(GraphDBTest, EdgeRoundTrip) {
  DbFixture f;
  ASSERT_TRUE(f.db->AddEdge(1, 2, 3, "liked-at-noon", 100).ok());
  EXPECT_EQ(f.db->GetEdge(1, 2, 3).value(), "liked-at-noon");
  EXPECT_TRUE(f.db->GetEdge(1, 2, 4).status().IsNotFound());
  EXPECT_TRUE(f.db->GetEdge(1, 3, 3).status().IsNotFound());  // other type
}

TEST(GraphDBTest, DeleteEdge) {
  DbFixture f;
  ASSERT_TRUE(f.db->AddEdge(1, 1, 2, "p", 1).ok());
  ASSERT_TRUE(f.db->DeleteEdge(1, 1, 2).ok());
  EXPECT_TRUE(f.db->GetEdge(1, 1, 2).status().IsNotFound());
}

TEST(GraphDBTest, NeighborsSortedByDst) {
  DbFixture f;
  for (graph::VertexId d : {30, 10, 20}) {
    ASSERT_TRUE(f.db->AddEdge(5, 1, d, "p" + std::to_string(d), 1).ok());
  }
  std::vector<graph::Neighbor> out;
  ASSERT_TRUE(f.db->GetNeighbors(5, 1, 100, &out).ok());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].dst, 10u);
  EXPECT_EQ(out[1].dst, 20u);
  EXPECT_EQ(out[2].dst, 30u);
  EXPECT_EQ(out[2].properties, "p30");
}

TEST(GraphDBTest, NeighborsLimitApplies) {
  DbFixture f;
  for (graph::VertexId d = 0; d < 50; ++d) {
    ASSERT_TRUE(f.db->AddEdge(5, 1, d + 100, "", 1).ok());
  }
  std::vector<graph::Neighbor> out;
  ASSERT_TRUE(f.db->GetNeighbors(5, 1, 10, &out).ok());
  EXPECT_EQ(out.size(), 10u);
}

TEST(GraphDBTest, SuperVertexSplitsOutIntoDedicatedTree) {
  GraphDBOptions opts;
  opts.forest.split_out_threshold = 64;
  DbFixture f(opts);
  for (graph::VertexId d = 0; d < 200; ++d) {
    ASSERT_TRUE(f.db->AddEdge(7, 1, d, "", 1).ok());
  }
  EXPECT_GE(f.db->forest()->DedicatedTreeCount(), 1u);
  std::vector<graph::Neighbor> out;
  ASSERT_TRUE(f.db->GetNeighbors(7, 1, 1000, &out).ok());
  EXPECT_EQ(out.size(), 200u);
}

TEST(GraphDBTest, TtlExpiresEdgesOnRead) {
  GraphDBOptions opts;
  opts.edge_ttl_us = 1000;
  DbFixture f(opts);
  f.clock.SetUs(100);
  ASSERT_TRUE(f.db->AddEdge(1, 1, 2, "old", 0).ok());  // stamped at 100
  f.clock.SetUs(500);
  EXPECT_TRUE(f.db->GetEdge(1, 1, 2).ok());  // still fresh
  f.clock.SetUs(2000);
  EXPECT_TRUE(f.db->GetEdge(1, 1, 2).status().IsNotFound());
  std::vector<graph::Neighbor> out;
  ASSERT_TRUE(f.db->GetNeighbors(1, 1, 10, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(GraphDBTest, GcCycleReclaimsChurnedSpace) {
  GraphDBOptions opts;
  opts.gc_policy = GcPolicyKind::kDirtyRatio;
  opts.gc_target_dead_ratio = 0.01;
  opts.gc_min_fragmentation = 0.01;
  opts.gc_extents_per_cycle = 8;
  opts.forest.tree_options.consolidate_threshold = 4;
  DbFixture f(opts, /*extent_capacity=*/2048);
  for (int round = 0; round < 40; ++round) {
    f.clock.AdvanceUs(1000);
    for (graph::VertexId d = 0; d < 20; ++d) {
      ASSERT_TRUE(
          f.db->AddEdge(1, 1, d, "r" + std::to_string(round), 0).ok());
    }
  }
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(f.db->RunGcCycle().ok());
  const DbStats stats = f.db->Stats();
  EXPECT_GT(stats.extents_freed, 0u);
  // Data survives reclamation.
  std::vector<graph::Neighbor> out;
  ASSERT_TRUE(f.db->GetNeighbors(1, 1, 100, &out).ok());
  EXPECT_EQ(out.size(), 20u);
  for (const auto& n : out) EXPECT_EQ(n.properties, "r39");
}

TEST(GraphDBTest, TtlWorkloadExpiresWholeExtentsWithoutMovement) {
  GraphDBOptions opts;
  opts.gc_policy = GcPolicyKind::kWorkloadAware;
  opts.edge_ttl_us = 1'000'000;
  opts.gc_extents_per_cycle = 64;
  DbFixture f(opts, /*extent_capacity=*/4096);
  for (int i = 0; i < 500; ++i) {
    f.clock.AdvanceUs(100);
    ASSERT_TRUE(f.db->AddEdge(i % 50, 1, 1000 + i, std::string(32, 'x'), 0).ok());
  }
  f.clock.AdvanceUs(10'000'000);
  ASSERT_TRUE(f.db->RunGcCycle().ok());
  const DbStats stats = f.db->Stats();
  EXPECT_GT(stats.gc_extents_expired, 0u);
  EXPECT_EQ(stats.gc_moved_bytes, 0u);  // Table 2: TTL -> zero movement
}

TEST(GraphDBTest, StatsSnapshotIsCoherent) {
  DbFixture f;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(f.db->AddEdge(i % 5, 1, i, "p", 0).ok());
  }
  const DbStats stats = f.db->Stats();
  EXPECT_GT(stats.append_ops, 0u);
  EXPECT_GT(stats.storage_total_bytes, 0u);
  EXPECT_GE(stats.storage_total_bytes, stats.storage_live_bytes);
  EXPECT_GE(stats.tree_count, 1u);
  EXPECT_GT(stats.approx_memory_bytes, 0u);
  EXPECT_FALSE(stats.ToString().empty());
}

TEST(GraphDBTest, ConcurrentMixedWorkload) {
  GraphDBOptions opts;
  opts.forest.split_out_threshold = 32;
  DbFixture f(opts);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      std::vector<graph::Neighbor> out;
      for (int i = 0; i < 300; ++i) {
        ASSERT_TRUE(f.db->AddEdge(t, 1, i, "v", 0).ok());
        if (i % 10 == 0) {
          out.clear();
          ASSERT_TRUE(f.db->GetNeighbors(t, 1, 16, &out).ok());
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 4; ++t) {
    std::vector<graph::Neighbor> out;
    ASSERT_TRUE(f.db->GetNeighbors(t, 1, 1000, &out).ok());
    EXPECT_EQ(out.size(), 300u);
  }
}

}  // namespace
}  // namespace bg3::core

namespace bg3::core {
namespace {

TEST(GraphDBTest, BackgroundMaintenanceRunsAndStops) {
  GraphDBOptions opts;
  opts.gc_policy = GcPolicyKind::kDirtyRatio;
  opts.gc_target_dead_ratio = 0.01;
  opts.gc_min_fragmentation = 0.01;
  opts.forest.tree_options.consolidate_threshold = 4;
  DbFixture f(opts, /*extent_capacity=*/2048);
  f.db->StartMaintenance(/*interval_ms=*/5);
  f.db->StartMaintenance(5);  // idempotent
  for (int round = 0; round < 30; ++round) {
    for (graph::VertexId d = 0; d < 20; ++d) {
      ASSERT_TRUE(f.db->AddEdge(1, 1, d, "r" + std::to_string(round), 0).ok());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  f.db->StopMaintenance();
  f.db->StopMaintenance();  // idempotent
  // Data intact; GC actually ran.
  std::vector<graph::Neighbor> out;
  ASSERT_TRUE(f.db->GetNeighbors(1, 1, 100, &out).ok());
  EXPECT_EQ(out.size(), 20u);
  EXPECT_GT(f.db->Stats().extents_freed, 0u);
}

}  // namespace
}  // namespace bg3::core

namespace bg3::core {
namespace {

TEST(GraphDBTest, MemoryBudgetEvictsDuringMaintenance) {
  GraphDBOptions opts;
  opts.memory_budget_bytes = 1;  // everything is over budget
  opts.gc_policy = GcPolicyKind::kNone;
  DbFixture f(opts);
  for (graph::VertexId d = 0; d < 2000; ++d) {
    ASSERT_TRUE(f.db->AddEdge(1, 1, d, std::string(64, 'x'), 0).ok());
  }
  const size_t before = f.db->Stats().approx_memory_bytes;
  ASSERT_TRUE(f.db->RunGcCycle().ok());  // maintenance = eviction here
  EXPECT_LT(f.db->Stats().approx_memory_bytes, before / 2);
  // Data remains fully readable (reloaded from flushed images).
  std::vector<graph::Neighbor> out;
  ASSERT_TRUE(f.db->GetNeighbors(1, 1, 5000, &out).ok());
  EXPECT_EQ(out.size(), 2000u);
}

}  // namespace
}  // namespace bg3::core

namespace bg3::core {
namespace {

// Budget + TTL + GC: leaves evicted under the memory budget whose base
// images sat in extents GC then freed at their TTL deadline (last append +
// TTL) reload as empty — every entry of such an image had expired — so
// GetNeighbors succeeds and returns exactly the unexpired edges.
TEST(GraphDBTest, EvictedLeavesInExpiredExtentsReloadAsExpired) {
  GraphDBOptions opts;
  opts.edge_ttl_us = 1'000'000;
  opts.memory_budget_bytes = 1;  // every cycle evicts all clean leaves
  opts.gc_policy = GcPolicyKind::kWorkloadAware;
  opts.gc_extents_per_cycle = 64;
  opts.forest.tree_options.max_leaf_entries = 8;  // many flushed leaves
  DbFixture f(opts, /*extent_capacity=*/2048);
  f.clock.SetUs(1'000);
  for (graph::VertexId d = 0; d < 40; ++d) {
    ASSERT_TRUE(f.db->AddEdge(1, 1, d, std::string(32, 'o'), 0).ok());
  }
  // Other vertices' edges at the same time seal the extents holding
  // vertex 1's images.
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(
        f.db->AddEdge(2 + i % 10, 1, i, std::string(64, 'f'), 0).ok());
  }
  ASSERT_TRUE(f.db->RunGcCycle().ok());  // evicts; nothing has expired yet
  EXPECT_EQ(f.db->Stats().gc_extents_expired, 0u);
  f.clock.AdvanceUs(3'000'000);  // every edge above is now past its TTL
  for (graph::VertexId d = 100; d < 104; ++d) {
    ASSERT_TRUE(f.db->AddEdge(1, 1, d, "fresh", 0).ok());
  }
  ASSERT_TRUE(f.db->RunGcCycle().ok());  // frees expired extents in place
  EXPECT_GT(f.db->Stats().gc_extents_expired, 0u);

  std::vector<graph::Neighbor> out;
  const Status s = f.db->GetNeighbors(1, 1, 1000, &out);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(out.size(), 4u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].dst, 100 + i);
    EXPECT_EQ(out[i].properties, "fresh");
  }
  for (graph::VertexId src = 2; src < 12; ++src) {
    out.clear();
    ASSERT_TRUE(f.db->GetNeighbors(src, 1, 1000, &out).ok());
    EXPECT_TRUE(out.empty()) << "vertex " << src;
  }
}

// The same budget + TTL + GC sequence must not silently lose vertex rows:
// they have no TTL, yet their images share the streams whose extents expire
// in place. An evicted vertex leaf whose image GC freed fails its reads with
// the store's missing-extent error, never the answer for an absent row, and
// later writes into that leaf (enough to consolidate it) must not turn the
// lost rows into absent ones by building an image without them.
TEST(GraphDBTest, EvictedVertexRowsInExpiredExtentsAreNotSilentlyLost) {
  GraphDBOptions opts;
  opts.edge_ttl_us = 1'000'000;
  opts.memory_budget_bytes = 1;  // every cycle evicts all clean leaves
  opts.gc_policy = GcPolicyKind::kWorkloadAware;
  opts.gc_extents_per_cycle = 64;
  opts.vertex_tree_max_leaf_entries = 8;
  DbFixture f(opts, /*extent_capacity=*/2048);
  const std::string absent =
      DbFixture().db->GetVertex(1).status().ToString();
  f.clock.SetUs(1'000);
  constexpr graph::VertexId kVertices = 40;
  auto props = [](graph::VertexId v) {
    return "vertex-" + std::to_string(v) + std::string(24, 'v');
  };
  for (graph::VertexId v = 0; v < kVertices; ++v) {
    ASSERT_TRUE(f.db->AddVertex(v, props(v)).ok());
  }
  for (int i = 0; i < 60; ++i) {  // seal the extents holding the vertices
    ASSERT_TRUE(
        f.db->AddEdge(100 + i % 10, 1, i, std::string(64, 'f'), 0).ok());
  }
  ASSERT_TRUE(f.db->RunGcCycle().ok());  // evicts; nothing has expired yet
  f.clock.AdvanceUs(3'000'000);
  ASSERT_TRUE(f.db->AddEdge(200, 1, 1, "fresh", 0).ok());
  ASSERT_TRUE(f.db->RunGcCycle().ok());  // frees expired extents in place

  // Every row is either intact or fails loudly.
  std::vector<graph::VertexId> lost;
  for (graph::VertexId v = 0; v < kVertices; ++v) {
    auto got = f.db->GetVertex(v);
    if (got.ok()) {
      EXPECT_EQ(got.value(), props(v));
    } else {
      EXPECT_NE(got.status().ToString(), absent) << "vertex " << v;
      lost.push_back(v);
    }
  }
  ASSERT_FALSE(lost.empty());  // the sequence did reach freed images
  // Rewrite every other lost row often enough to consolidate its leaf; the
  // rows left alone must still fail loudly afterwards.
  for (int round = 0; round < 12; ++round) {
    for (size_t i = 0; i < lost.size(); i += 2) {
      (void)f.db->AddVertex(lost[i], "rewritten");
    }
  }
  for (size_t i = 1; i < lost.size(); i += 2) {
    auto got = f.db->GetVertex(lost[i]);
    if (got.ok()) {
      EXPECT_EQ(got.value(), props(lost[i]));
    } else {
      EXPECT_NE(got.status().ToString(), absent) << "vertex " << lost[i];
    }
  }
}

// GetNeighbors against a model while owners split out of INIT and leaves
// are evicted: `limit` counts scanned entries (expired ones included), then
// expired edges are filtered — the historical semantics the in-place
// decode keeps.
TEST(GraphDBTest, NeighborsMatchModelWithLimitBeforeTtl) {
  GraphDBOptions opts;
  opts.edge_ttl_us = 1'000;
  opts.memory_budget_bytes = 1;
  opts.gc_policy = GcPolicyKind::kNone;
  opts.forest.split_out_threshold = 24;
  opts.forest.tree_options.max_leaf_entries = 16;
  DbFixture f(opts);
  f.clock.SetUs(10'000);
  struct Edge {
    graph::TimestampUs created_us;
    std::string properties;
  };
  std::map<graph::VertexId, std::map<graph::VertexId, Edge>> model;
  Random rng(0xED6E);
  for (int i = 0; i < 3000; ++i) {
    const graph::VertexId src = rng.Uniform(6);
    const graph::VertexId dst = rng.Uniform(50);
    const int action = static_cast<int>(rng.Uniform(20));
    if (action < 11) {
      // Half the edges are stamped already past the TTL.
      const graph::TimestampUs created =
          rng.Uniform(2) == 0 ? 1 + rng.Uniform(8'000) : 9'500;
      const std::string props = "e" + std::to_string(i);
      ASSERT_TRUE(f.db->AddEdge(src, 1, dst, props, created).ok());
      model[src][dst] = Edge{created, props};
    } else if (action < 14) {
      ASSERT_TRUE(f.db->DeleteEdge(src, 1, dst).ok());
      model[src].erase(dst);
    } else if (action < 15) {
      ASSERT_TRUE(f.db->RunGcCycle().ok());  // budget eviction
    } else {
      const size_t limit = rng.Uniform(4) == 0 ? 1000 : rng.Uniform(20);
      std::vector<graph::Neighbor> got;
      ASSERT_TRUE(f.db->GetNeighbors(src, 1, limit, &got).ok());
      std::vector<graph::Neighbor> want;
      size_t scanned = 0;
      for (const auto& [dst, e] : model[src]) {
        if (scanned++ == limit) break;
        if (e.created_us + opts.edge_ttl_us <= f.clock.NowUs()) continue;
        want.push_back(graph::Neighbor{dst, e.created_us, e.properties});
      }
      ASSERT_EQ(got.size(), want.size()) << "src " << src << " limit " << limit;
      for (size_t k = 0; k < got.size(); ++k) {
        EXPECT_EQ(got[k].dst, want[k].dst);
        EXPECT_EQ(got[k].created_us, want[k].created_us);
        EXPECT_EQ(got[k].properties, want[k].properties);
      }
    }
  }
  EXPECT_GT(f.db->Stats().split_outs, 0u);
}

}  // namespace
}  // namespace bg3::core
