// Property-based forest tests: randomized per-owner workloads against a
// map<owner, map<key,value>> reference model, swept across split-out
// thresholds and INIT capacities (the forest must be semantically invisible
// regardless of where each owner's data physically lives).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cloud/cloud_store.h"
#include "common/random.h"
#include "forest/forest.h"
#include "forest_scan.h"

namespace bg3::forest {
namespace {

struct ForestParam {
  size_t split_out_threshold;
  size_t init_tree_capacity;
  uint32_t consolidate_threshold;
};

std::string ParamName(const testing::TestParamInfo<ForestParam>& info) {
  return "split" + std::to_string(info.param.split_out_threshold) + "_cap" +
         std::to_string(info.param.init_tree_capacity) + "_cons" +
         std::to_string(info.param.consolidate_threshold);
}

class ForestModelTest : public testing::TestWithParam<ForestParam> {
 protected:
  void SetUp() override {
    cloud::CloudStoreOptions copts;
    copts.extent_capacity = 1 << 14;
    store_ = std::make_unique<cloud::CloudStore>(copts);
    ForestOptions opts;
    opts.split_out_threshold = GetParam().split_out_threshold;
    opts.init_tree_capacity = GetParam().init_tree_capacity;
    opts.tree_options.consolidate_threshold = GetParam().consolidate_threshold;
    opts.tree_options.max_leaf_entries = 32;
    opts.tree_options.base_stream = store_->CreateStream("base");
    opts.tree_options.delta_stream = store_->CreateStream("delta");
    forest_ = std::make_unique<BwTreeForest>(store_.get(), opts);
  }

  std::unique_ptr<cloud::CloudStore> store_;
  std::unique_ptr<BwTreeForest> forest_;
};

TEST_P(ForestModelTest, RandomOpsMatchReferenceModel) {
  std::map<OwnerId, std::map<std::string, std::string>> model;
  Random rng(GetParam().split_out_threshold * 7 +
             GetParam().init_tree_capacity);
  for (int i = 0; i < 4000; ++i) {
    const OwnerId owner = rng.Uniform(30);
    const std::string key = "s" + std::to_string(rng.Uniform(60));
    const int action = static_cast<int>(rng.Uniform(10));
    if (action < 6) {
      const std::string value = "v" + std::to_string(i);
      ASSERT_TRUE(forest_->Upsert(owner, key, value).ok());
      model[owner][key] = value;
    } else if (action < 8) {
      ASSERT_TRUE(forest_->Delete(owner, key).ok());
      model[owner].erase(key);
    } else {
      auto got = forest_->Get(owner, key);
      auto oit = model.find(owner);
      const bool in_model =
          oit != model.end() && oit->second.count(key) > 0;
      if (in_model) {
        ASSERT_TRUE(got.ok()) << owner << "/" << key;
        EXPECT_EQ(got.value(), oit->second[key]);
      } else {
        EXPECT_TRUE(got.status().IsNotFound()) << owner << "/" << key;
      }
    }
  }
  // Final sweep: per-owner scans match the model exactly.
  for (const auto& [owner, entries] : model) {
    std::vector<bwtree::Entry> out;
    ASSERT_TRUE(test::ScanOwnerEntries(forest_.get(),
                                       owner, "", 1u << 20, &out).ok());
    ASSERT_EQ(out.size(), entries.size()) << "owner " << owner;
    auto mit = entries.begin();
    for (const bwtree::Entry& e : out) {
      EXPECT_EQ(e.key, mit->first);
      EXPECT_EQ(e.value, mit->second);
      ++mit;
    }
  }
}

TEST_P(ForestModelTest, MidStreamDedicationIsTransparent) {
  std::map<OwnerId, std::map<std::string, std::string>> model;
  Random rng(99);
  for (int i = 0; i < 1500; ++i) {
    const OwnerId owner = rng.Uniform(8);
    const std::string key = "k" + std::to_string(rng.Uniform(40));
    const std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(forest_->Upsert(owner, key, value).ok());
    model[owner][key] = value;
    if (i == 700) {
      // Force every owner into a dedicated tree mid-stream.
      for (OwnerId o = 0; o < 8; ++o) {
        ASSERT_TRUE(forest_->DedicateOwner(o).ok());
      }
    }
  }
  for (const auto& [owner, entries] : model) {
    for (const auto& [key, value] : entries) {
      EXPECT_EQ(forest_->Get(owner, key).value(), value);
    }
  }
}

// Visitor scans of one owner from a random (often non-empty) start sort
// key with a random limit, against the model, while owners move from INIT
// into dedicated trees and the budget evicts leaves under the scans.
TEST_P(ForestModelTest, VisitorScansMatchReferenceModel) {
  std::map<OwnerId, std::map<std::string, std::string>> model;
  Random rng(GetParam().split_out_threshold * 13 +
             GetParam().init_tree_capacity + 5);
  for (int i = 0; i < 4000; ++i) {
    const OwnerId owner = rng.Uniform(30);
    const std::string key = "s" + std::to_string(rng.Uniform(60));
    const int action = static_cast<int>(rng.Uniform(20));
    if (action < 11) {
      const std::string value = "v" + std::to_string(i);
      ASSERT_TRUE(forest_->Upsert(owner, key, value).ok());
      model[owner][key] = value;
    } else if (action < 15) {
      ASSERT_TRUE(forest_->Delete(owner, key).ok());
      model[owner].erase(key);
    } else if (action < 16) {
      BG3_IGNORE_STATUS(forest_->EvictToBudget(rng.Uniform(2048)));
    } else {
      const std::string start =
          rng.Uniform(3) == 0 ? std::string()
                              : "s" + std::to_string(rng.Uniform(60));
      const size_t limit = rng.Uniform(4) == 0 ? ~size_t{0} : rng.Uniform(25);
      std::vector<std::pair<std::string, std::string>> got;
      ASSERT_TRUE(forest_
                      ->ScanOwner(owner, start, limit,
                                  [&got](const Slice& k, const Slice& v) {
                                    got.emplace_back(k.ToString(),
                                                     v.ToString());
                                    return true;
                                  })
                      .ok());
      std::vector<std::pair<std::string, std::string>> want;
      const auto& entries = model[owner];
      for (auto it = entries.lower_bound(start);
           it != entries.end() && want.size() < limit; ++it) {
        want.emplace_back(it->first, it->second);
      }
      ASSERT_EQ(got, want) << "owner " << owner << " from '" << start
                           << "' limit " << limit << " dedicated "
                           << (forest_->DedicatedTreeCount() > 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ForestModelTest,
    testing::Values(ForestParam{~0ull, ~0ull, 10},  // everything in INIT
                    ForestParam{0, ~0ull, 10},      // everything dedicated
                    ForestParam{20, ~0ull, 10},     // mixed by threshold
                    ForestParam{50, 300, 10},       // capacity evictions
                    ForestParam{20, 200, 3},        // aggressive everything
                    ForestParam{5, ~0ull, 4}),
    ParamName);

}  // namespace
}  // namespace bg3::forest
