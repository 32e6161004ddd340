#include "mpx/fault.hpp"

#include <algorithm>

#include "util/fault_hash.hpp"

namespace fv::mpx {

namespace {

/// One deterministic uniform draw in [0, 1) per message envelope: the
/// shared fault_hash chain over the envelope packed into two words. The
/// packing (and therefore every decision any historical seed produced) is
/// pinned by the FaultHash equivalence test in tests/util_test.cpp.
double uniform_draw(std::uint64_t seed, int source, int dest, int tag,
                    std::uint64_t sequence, std::uint64_t stream) {
  const std::uint64_t h = fault_hash(
      seed, stream,
      {(static_cast<std::uint64_t>(static_cast<std::uint32_t>(source))
        << 32) ^
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(dest)),
       (static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag)) << 32) ^
           sequence});
  return fault_uniform(h);
}

}  // namespace

FaultPlan::FaultPlan(FaultSpec spec) : spec_(std::move(spec)) {
  const double rates[] = {spec_.drop_rate, spec_.delay_rate,
                          spec_.duplicate_rate, spec_.corrupt_rate};
  double sum = 0.0;
  for (const double rate : rates) {
    FV_REQUIRE(rate >= 0.0 && rate <= 1.0,
               "fault rates must lie in [0, 1]");
    sum += rate;
  }
  FV_REQUIRE(sum <= 1.0 + 1e-12,
             "fault rates partition one draw; their sum must be <= 1");
  FV_REQUIRE(spec_.delay.count() >= 0, "fault delay must be non-negative");
  FV_REQUIRE(spec_.crash_rank < 0 || spec_.crash_at_op >= 1,
             "crash_at_op is 1-based");
}

FaultAction FaultPlan::decide(int source, int dest, int tag,
                              std::uint64_t sequence) const {
  if (std::find(spec_.exempt_tags.begin(), spec_.exempt_tags.end(), tag) !=
      spec_.exempt_tags.end()) {
    return FaultAction::kNone;
  }
  const double u = uniform_draw(spec_.seed, source, dest, tag, sequence, 1);
  double edge = spec_.drop_rate;
  if (u < edge) return FaultAction::kDrop;
  edge += spec_.delay_rate;
  if (u < edge) return FaultAction::kDelay;
  edge += spec_.duplicate_rate;
  if (u < edge) return FaultAction::kDuplicate;
  edge += spec_.corrupt_rate;
  if (u < edge) return FaultAction::kCorrupt;
  return FaultAction::kNone;
}

std::size_t FaultPlan::corrupt_index(std::uint64_t sequence,
                                     std::size_t payload_size) const {
  FV_REQUIRE(payload_size > 0, "cannot pick a corrupt index in empty payload");
  return static_cast<std::size_t>(
      fault_mix64(spec_.seed ^ (sequence * 0xd1342543de82ef95ull)) %
      payload_size);
}

}  // namespace fv::mpx
