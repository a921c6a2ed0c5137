#ifndef BG3_TESTS_FOREST_SCAN_H_
#define BG3_TESTS_FOREST_SCAN_H_

#include <cstddef>
#include <vector>

#include "bwtree/bwtree.h"
#include "common/slice.h"
#include "common/status.h"
#include "forest/forest.h"

namespace bg3::test {

/// Appends one owner's ordered scan to `out` as owned copies. The forest
/// itself only scans through a visitor; tests that compare whole results
/// collect them here.
inline Status ScanOwnerEntries(forest::BwTreeForest* forest,
                               forest::OwnerId owner, const Slice& start,
                               size_t limit, std::vector<bwtree::Entry>* out) {
  return forest->ScanOwner(owner, start, limit,
                           [out](const Slice& key, const Slice& value) {
                             out->push_back(bwtree::Entry{key.ToString(),
                                                          value.ToString()});
                             return true;
                           });
}

}  // namespace bg3::test

#endif  // BG3_TESTS_FOREST_SCAN_H_
