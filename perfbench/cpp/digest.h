// Output digests: a 64-bit hash over every virtual-plane field a pass
// returns. Two passes that simulated the same thing hash equal; any change
// to a simulated number, count or per-resource timing changes the hash.
// Load results are hashed through their wire format
// (browser::serialize_load_result, harness::serialize_corpus_result), so a
// field added there is covered here too. DeploymentReport has no wire
// format; hash_deployment lists its fields, leaving out the two wall-clock
// ones (macro_wall_seconds, warm_wall_seconds).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "browser/metrics.h"
#include "deploy/scenario.h"
#include "harness/experiment.h"

namespace perfbench {

// FNV-1a over the little-endian bytes of each value fed to it.
class Hasher {
 public:
  void add(std::uint64_t v);
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(int v) { add(static_cast<std::int64_t>(v)); }
  void add(bool v) { add(static_cast<std::uint64_t>(v ? 1 : 0)); }
  void add(double v);
  void add(std::string_view s);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

void hash_corpus_results(Hasher& h,
                         const std::vector<vroom::harness::CorpusResult>& rs);
void hash_deployment(Hasher& h, const vroom::deploy::DeploymentReport& r);

// One load's digest, without trace_counters (the trace's own output, filled
// only when a recorder is attached), so traced and untraced loads compare.
std::uint64_t digest_load(vroom::browser::LoadResult r);

std::string hex64(std::uint64_t v);

}  // namespace perfbench
