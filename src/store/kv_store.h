// Redis-like in-memory key-value cache with asynchronous geo-replication.

#ifndef SRC_STORE_KV_STORE_H_
#define SRC_STORE_KV_STORE_H_

#include <array>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/common/timer_service.h"
#include "src/store/replicated_store.h"

namespace antipode {

class KvStore : public ReplicatedStore {
 public:
  // Replication profile calibrated so the Table 1 / Fig. 7 shapes hold
  // (moderate shipping delay with a wide spread).
  static ReplicatedStoreOptions DefaultOptions(std::string name, std::vector<Region> regions);

  explicit KvStore(ReplicatedStoreOptions options,
                   RegionTopology* topology = &RegionTopology::Default(),
                   TimerService* timers = &TimerService::Shared())
      : ReplicatedStore(std::move(options), topology, timers),
        alive_(std::make_shared<Liveness>()) {}

  ~KvStore() override {
    // Disarm outstanding TTL timers before members are torn down.
    std::lock_guard<std::mutex> lock(alive_->mu);
    alive_->alive = false;
  }

  // Returns the write's version.
  uint64_t Set(Region region, const std::string& key, std::string value) {
    return Put(region, key, std::move(value));
  }

  std::optional<std::string> GetValue(Region region, const std::string& key) const {
    auto entry = Get(region, key);
    if (!entry || entry->bytes.empty()) {
      return std::nullopt;
    }
    return entry->bytes;
  }

  // Deletion is modelled as an empty tombstone (versions keep increasing).
  uint64_t Del(Region region, const std::string& key) { return Put(region, key, std::string()); }

  bool Exists(Region region, const std::string& key) const {
    auto entry = Get(region, key);
    return static_cast<bool>(entry) && !entry->bytes.empty();
  }

  // SET with expiry: the key is tombstoned everywhere after `ttl` elapses
  // (measured in scaled wall time, like every other simulated delay).
  uint64_t SetWithTtl(Region region, const std::string& key, std::string value,
                      double ttl_model_millis);

  // Atomic counter increment (INCR). Missing or non-numeric values count as
  // 0. Returns the post-increment value.
  int64_t Increment(Region region, const std::string& key, int64_t delta = 1);

  // Multi-get from the region's replica.
  std::vector<std::optional<std::string>> MGet(Region region,
                                               const std::vector<std::string>& keys) const;

 private:
  // Keeps TTL-expiry timer callbacks from touching a destroyed store: the
  // callback holds the shared state and checks `alive` under the lock.
  struct Liveness {
    std::mutex mu;
    bool alive = true;
  };

  // INCR serializes read-modify-write per counter key; striping by key hash
  // (instead of the old store-wide counter_mu_) lets unrelated counters
  // increment concurrently.
  static constexpr size_t kCounterStripes = 16;
  std::mutex& CounterMutex(const std::string& key) {
    return counter_mu_[std::hash<std::string>{}(key) % kCounterStripes];
  }
  std::array<std::mutex, kCounterStripes> counter_mu_;
  std::shared_ptr<Liveness> alive_;
};

}  // namespace antipode

#endif  // SRC_STORE_KV_STORE_H_
