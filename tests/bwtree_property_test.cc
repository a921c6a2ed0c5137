// Property-based tests: a BwTree under randomized workloads must behave
// exactly like a std::map reference model, across every combination of
// delta mode, consolidation threshold and leaf size.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bwtree/bwtree.h"
#include "cloud/cloud_store.h"
#include "common/random.h"

namespace bg3::bwtree {
namespace {

struct PropertyParam {
  DeltaMode mode;
  uint32_t consolidate_threshold;
  size_t max_leaf_entries;
  FlushMode flush_mode;
};

std::string ParamName(const testing::TestParamInfo<PropertyParam>& info) {
  const PropertyParam& p = info.param;
  std::string name = p.mode == DeltaMode::kTraditional ? "trad" : "readopt";
  name += "_c" + std::to_string(p.consolidate_threshold);
  name += "_l" + std::to_string(p.max_leaf_entries);
  name += p.flush_mode == FlushMode::kSync ? "_sync" : "_deferred";
  return name;
}

using Model = std::map<std::string, std::string>;
using Pairs = std::vector<std::pair<std::string, std::string>>;

// A random visitor-scan shape: start and end each empty a quarter of the
// time (scan from the beginning / to the end), limit 0..40 or unlimited.
BwTree::ScanOptions RandomScan(Random* rng, int key_space) {
  BwTree::ScanOptions scan;
  if (rng->Uniform(4) != 0) {
    scan.start_key = "key" + std::to_string(rng->Uniform(key_space));
  }
  if (rng->Uniform(4) != 0) {
    scan.end_key = "key" + std::to_string(rng->Uniform(key_space));
  }
  if (rng->Uniform(4) != 0) scan.limit = rng->Uniform(41);
  return scan;
}

// The model's answer to `scan`, cut to `stop_after` entries.
Pairs ModelScan(const Model& model, const BwTree::ScanOptions& scan,
                size_t stop_after) {
  Pairs want;
  for (auto it = model.lower_bound(scan.start_key);
       it != model.end() && want.size() < std::min(scan.limit, stop_after);
       ++it) {
    if (!scan.end_key.empty() && it->first >= scan.end_key) break;
    want.emplace_back(it->first, it->second);
  }
  return want;
}

// Runs one visitor scan whose visitor stops the scan after `stop_after`
// entries, and checks the visited entries against the model.
void ExpectVisitMatchesModel(BwTree* tree, const Model& model,
                             const BwTree::ScanOptions& scan,
                             size_t stop_after) {
  Pairs got;
  ASSERT_TRUE(tree->Scan(scan,
                         [&](const Slice& key, const Slice& value) {
                           got.emplace_back(key.ToString(), value.ToString());
                           return got.size() < stop_after;
                         })
                  .ok());
  EXPECT_EQ(got, ModelScan(model, scan, stop_after))
      << "[" << scan.start_key << ", " << scan.end_key << ") limit "
      << scan.limit << " stop after " << stop_after;
}

class BwTreeModelTest : public testing::TestWithParam<PropertyParam> {
 protected:
  void SetUp() override {
    cloud::CloudStoreOptions copts;
    copts.extent_capacity = 1 << 14;
    store_ = std::make_unique<cloud::CloudStore>(copts);
    BwTreeOptions opts;
    opts.delta_mode = GetParam().mode;
    opts.consolidate_threshold = GetParam().consolidate_threshold;
    opts.max_leaf_entries = GetParam().max_leaf_entries;
    opts.flush_mode = GetParam().flush_mode;
    opts.base_stream = store_->CreateStream("base");
    opts.delta_stream = store_->CreateStream("delta");
    tree_ = std::make_unique<BwTree>(store_.get(), opts);
  }

  static std::string RandomKey(Random* rng, int key_space) {
    return "key" + std::to_string(rng->Uniform(key_space));
  }

  std::unique_ptr<cloud::CloudStore> store_;
  std::unique_ptr<BwTree> tree_;
};

TEST_P(BwTreeModelTest, RandomOpsMatchReferenceModel) {
  std::map<std::string, std::string> model;
  Random rng(GetParam().consolidate_threshold * 1000 +
             GetParam().max_leaf_entries);
  for (int i = 0; i < 3000; ++i) {
    const int action = static_cast<int>(rng.Uniform(10));
    const std::string key = RandomKey(&rng, 200);
    if (action < 6) {  // upsert
      const std::string value = "v" + std::to_string(rng.Next() % 1000);
      ASSERT_TRUE(tree_->Upsert(key, value).ok());
      model[key] = value;
    } else if (action < 8) {  // delete
      ASSERT_TRUE(tree_->Delete(key).ok());
      model.erase(key);
    } else if (action < 9) {  // point read
      auto got = tree_->Get(key);
      auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_TRUE(got.status().IsNotFound()) << key;
      } else {
        ASSERT_TRUE(got.ok()) << key;
        EXPECT_EQ(got.value(), it->second);
      }
    } else {  // memory pressure: evict cold pages
      (void)tree_->EvictColdPages(rng.Uniform(4));
    }
  }
  // Full-content comparison via scan.
  std::vector<Entry> entries;
  ASSERT_TRUE(tree_->Scan({}, &entries).ok());
  ASSERT_EQ(entries.size(), model.size());
  auto mit = model.begin();
  for (const Entry& e : entries) {
    EXPECT_EQ(e.key, mit->first);
    EXPECT_EQ(e.value, mit->second);
    ++mit;
  }
  EXPECT_EQ(tree_->CountEntries(), model.size());
}

TEST_P(BwTreeModelTest, RangeScansMatchReferenceModel) {
  std::map<std::string, std::string> model;
  Random rng(99);
  for (int i = 0; i < 1000; ++i) {
    const std::string key = RandomKey(&rng, 500);
    ASSERT_TRUE(tree_->Upsert(key, key + "-v").ok());
    model[key] = key + "-v";
  }
  for (int trial = 0; trial < 20; ++trial) {
    std::string lo = RandomKey(&rng, 500);
    std::string hi = RandomKey(&rng, 500);
    if (hi < lo) std::swap(lo, hi);
    std::vector<Entry> out;
    BwTree::ScanOptions scan;
    scan.start_key = lo;
    scan.end_key = hi;
    ASSERT_TRUE(tree_->Scan(scan, &out).ok());
    std::vector<std::pair<std::string, std::string>> expected(
        model.lower_bound(lo), model.lower_bound(hi));
    ASSERT_EQ(out.size(), expected.size()) << lo << ".." << hi;
    for (size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i].key, expected[i].first);
    }
  }
}

// Visitor scans against the model while upserts and deletes drive the
// leaves through consolidation, splits and eviction (so scans take both the
// shared-latch path and the exclusive reload fallback).
TEST_P(BwTreeModelTest, VisitorScansMatchReferenceModel) {
  Model model;
  Random rng(GetParam().consolidate_threshold * 31 +
             GetParam().max_leaf_entries);
  for (int i = 0; i < 3000; ++i) {
    const int action = static_cast<int>(rng.Uniform(10));
    const std::string key = RandomKey(&rng, 300);
    if (action < 5) {
      const std::string value = "v" + std::to_string(i);
      ASSERT_TRUE(tree_->Upsert(key, value).ok());
      model[key] = value;
    } else if (action < 7) {
      ASSERT_TRUE(tree_->Delete(key).ok());
      model.erase(key);
    } else if (action < 8) {
      (void)tree_->EvictColdPages(rng.Uniform(4));
    } else {
      const size_t stop_after =
          rng.Uniform(4) == 0 ? rng.Uniform(10) + 1 : ~size_t{0};
      ExpectVisitMatchesModel(tree_.get(), model, RandomScan(&rng, 300),
                              stop_after);
    }
  }
  ExpectVisitMatchesModel(tree_.get(), model, BwTree::ScanOptions{},
                          ~size_t{0});
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BwTreeModelTest,
    testing::Values(
        PropertyParam{DeltaMode::kTraditional, 4, 32, FlushMode::kSync},
        PropertyParam{DeltaMode::kTraditional, 10, 128, FlushMode::kSync},
        PropertyParam{DeltaMode::kTraditional, 2, 8, FlushMode::kSync},
        PropertyParam{DeltaMode::kReadOptimized, 4, 32, FlushMode::kSync},
        PropertyParam{DeltaMode::kReadOptimized, 10, 128, FlushMode::kSync},
        PropertyParam{DeltaMode::kReadOptimized, 2, 8, FlushMode::kSync},
        PropertyParam{DeltaMode::kReadOptimized, 10, 64, FlushMode::kDeferred},
        PropertyParam{DeltaMode::kTraditional, 10, 64, FlushMode::kDeferred}),
    ParamName);

// Zero-cache reads must agree with the model too (every read reassembles
// the page from storage images).
class ZeroCacheModelTest : public testing::TestWithParam<PropertyParam> {};

TEST_P(ZeroCacheModelTest, StorageImagesMatchMemory) {
  cloud::CloudStoreOptions copts;
  copts.extent_capacity = 1 << 14;
  cloud::CloudStore store(copts);
  BwTreeOptions opts;
  opts.delta_mode = GetParam().mode;
  opts.consolidate_threshold = GetParam().consolidate_threshold;
  opts.max_leaf_entries = GetParam().max_leaf_entries;
  opts.read_cache = ReadCacheMode::kNone;
  opts.base_stream = store.CreateStream("base");
  opts.delta_stream = store.CreateStream("delta");
  BwTree tree(&store, opts);

  std::map<std::string, std::string> model;
  Random rng(7);
  for (int i = 0; i < 1500; ++i) {
    const std::string key = "key" + std::to_string(rng.Uniform(100));
    if (rng.Uniform(10) < 7) {
      const std::string value = "v" + std::to_string(i);
      ASSERT_TRUE(tree.Upsert(key, value).ok());
      model[key] = value;
    } else {
      ASSERT_TRUE(tree.Delete(key).ok());
      model.erase(key);
    }
  }
  for (int k = 0; k < 100; ++k) {
    const std::string key = "key" + std::to_string(k);
    auto got = tree.Get(key);
    auto it = model.find(key);
    if (it == model.end()) {
      EXPECT_TRUE(got.status().IsNotFound()) << key;
    } else {
      ASSERT_TRUE(got.ok()) << key;
      EXPECT_EQ(got.value(), it->second);
    }
  }
}

// Zero-cache visitor scans reassemble every leaf from its storage images.
TEST_P(ZeroCacheModelTest, VisitorScansMatchReferenceModel) {
  cloud::CloudStoreOptions copts;
  copts.extent_capacity = 1 << 14;
  cloud::CloudStore store(copts);
  BwTreeOptions opts;
  opts.delta_mode = GetParam().mode;
  opts.consolidate_threshold = GetParam().consolidate_threshold;
  opts.max_leaf_entries = GetParam().max_leaf_entries;
  opts.read_cache = ReadCacheMode::kNone;
  opts.base_stream = store.CreateStream("base");
  opts.delta_stream = store.CreateStream("delta");
  BwTree tree(&store, opts);

  Model model;
  Random rng(11);
  for (int i = 0; i < 1500; ++i) {
    const std::string key = "key" + std::to_string(rng.Uniform(100));
    const int action = static_cast<int>(rng.Uniform(10));
    if (action < 6) {
      const std::string value = "v" + std::to_string(i);
      ASSERT_TRUE(tree.Upsert(key, value).ok());
      model[key] = value;
    } else if (action < 8) {
      ASSERT_TRUE(tree.Delete(key).ok());
      model.erase(key);
    } else {
      const size_t stop_after =
          rng.Uniform(4) == 0 ? rng.Uniform(10) + 1 : ~size_t{0};
      ExpectVisitMatchesModel(&tree, model, RandomScan(&rng, 100), stop_after);
    }
  }
  ExpectVisitMatchesModel(&tree, model, BwTree::ScanOptions{}, ~size_t{0});
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ZeroCacheModelTest,
    testing::Values(
        PropertyParam{DeltaMode::kTraditional, 6, 32, FlushMode::kSync},
        PropertyParam{DeltaMode::kReadOptimized, 6, 32, FlushMode::kSync},
        PropertyParam{DeltaMode::kTraditional, 12, 16, FlushMode::kSync},
        PropertyParam{DeltaMode::kReadOptimized, 12, 16, FlushMode::kSync}),
    ParamName);

}  // namespace
}  // namespace bg3::bwtree
