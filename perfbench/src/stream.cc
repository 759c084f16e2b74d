#include "perfbench/src/stream.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {
namespace {

enum StreamId : uint64_t { kKeyStream = 1, kPlanStream = 2, kAgeStream = 3, kRegionStream = 4 };

// Mean of the geometric part of a timeline read's age, in posts.
constexpr double kMeanReadAge = 1024.0;

uint64_t FoldString(uint64_t h, std::string_view s) {
  for (char c : s) {
    h = Mix64(h ^ static_cast<unsigned char>(c));
  }
  return Mix64(h ^ s.size());
}

}  // namespace

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t Draw(uint64_t seed, uint64_t stream, uint64_t index) {
  return Mix64(Mix64(seed ^ (stream << 56)) ^ index);
}

TimelineOp TimelineOpAt(uint64_t seed, uint64_t base_posts, uint64_t index) {
  TimelineOp op;
  const uint64_t newest = base_posts + index / kTimelineOpsPerWrite;
  if (index % kTimelineOpsPerWrite == 0) {
    op.write = true;
    op.post = newest;
    return op;
  }
  // Inverse-CDF geometric draw from the top 53 bits (uniform in (0, 1]).
  const double u =
      (static_cast<double>(Draw(seed, kAgeStream, index) >> 11) + 1.0) * 0x1.0p-53;
  const auto age = 1 + static_cast<uint64_t>(-std::log(u) * kMeanReadAge);
  op.post = newest - std::min(age, newest);
  op.read_at_sg = (Draw(seed, kRegionStream, index) & 1) != 0;
  return op;
}

std::string PostKey(uint64_t seed, uint64_t index) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "p%llu-%08llx", static_cast<unsigned long long>(index),
                static_cast<unsigned long long>(Draw(seed, kKeyStream, index) & 0xffffffffULL));
  return buf;
}

std::string TimelinePostKey(uint64_t post) { return "post/" + std::to_string(post); }

uint32_t MeshPlanAt(uint64_t seed, uint64_t index, uint32_t num_plans) {
  return num_plans == 0 ? 0 : static_cast<uint32_t>(Draw(seed, kPlanStream, index) % num_plans);
}

uint64_t StreamDigest(std::string_view workload, uint64_t seed, uint64_t count,
                      uint32_t mesh_plans) {
  uint64_t h = FoldString(0, workload);
  for (uint64_t i = 0; i < count; ++i) {
    if (workload == "post_notif") {
      h = FoldString(h, PostKey(seed, i));
    } else if (workload == "mesh_deep") {
      h = Mix64(h ^ MeshPlanAt(seed, i, mesh_plans));
    } else {
      const TimelineOp op = TimelineOpAt(seed, 0, i);
      h = Mix64(h ^ (op.post << 2) ^ (op.write ? 1 : 0) ^ (op.read_at_sg ? 2 : 0));
    }
  }
  return h;
}

}  // namespace perfbench
