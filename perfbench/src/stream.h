// Seeded request streams. Every input a workload feeds the system — keys,
// which mesh plan a request runs, which post a timeline read targets and in
// which region — is a pure function of ⟨workload, seed, request index⟩, so a
// seed names one exact request stream and two runs with the same seed drive
// the system with identical inputs (timing aside).

#ifndef PERFBENCH_SRC_STREAM_H_
#define PERFBENCH_SRC_STREAM_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

// SplitMix64 finalizer: a well-mixed 64-bit hash of `x`.
uint64_t Mix64(uint64_t x);

// Hash of (seed, stream, index): independent draws per purpose and request.
uint64_t Draw(uint64_t seed, uint64_t stream, uint64_t index);

// Read/write shape of the timeline_read mix: one post write, then
// kTimelineReadsPerWrite guarded reads.
inline constexpr uint64_t kTimelineReadsPerWrite = 16;
inline constexpr uint64_t kTimelineOpsPerWrite = kTimelineReadsPerWrite + 1;

struct TimelineOp {
  bool write = false;
  uint64_t post = 0;        // post written (write) or read (read)
  bool read_at_sg = false;  // reader region: SG when true, US otherwise
};

// Op `index` of the timeline stream over a history that already holds
// `base_posts` posts. Reads target a recent post: the age (in posts, ≥ 1
// behind the newest written one) is a seeded geometric draw, so reads skew
// toward the newest posts while most of their dependencies are already
// replicated.
TimelineOp TimelineOpAt(uint64_t seed, uint64_t base_posts, uint64_t index);

// Key of post `post` / request `index` (fresh per request, seed-derived).
std::string PostKey(uint64_t seed, uint64_t index);
std::string TimelinePostKey(uint64_t post);

// Mesh plan run by request `index`, drawn uniformly over `num_plans`.
uint32_t MeshPlanAt(uint64_t seed, uint64_t index, uint32_t num_plans);

// Digest of the first `count` requests of a workload's stream: every input
// the workload derives from the seed folds into it. Used by the tests to
// prove the stream is a pure function of the seed.
uint64_t StreamDigest(std::string_view workload, uint64_t seed, uint64_t count,
                      uint32_t mesh_plans);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STREAM_H_
