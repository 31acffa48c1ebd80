// Sharded single-flight result cache for the admission-control service.
//
// Admission queries are a recurring stream over a small population of ring
// configurations (same stations, periods, bandwidth — operators tune, then
// re-ask), so the daemon caches the rendered result JSON keyed by the
// canonicalized query. A hit skips everything: kernel construction, the
// saturation search, even response rendering.
//
// Two production concerns shape the design:
//  * Sharding: the key hash picks one of N independent shards (own lock,
//    own LRU list), so cache lookups from many connection threads do not
//    serialize on one mutex.
//  * Single-flight: on a miss, exactly one caller computes; concurrent
//    callers for the same key block on the shard's condition variable and
//    reuse the landed result instead of duplicating a multi-millisecond
//    Monte Carlo sweep. A compute that throws wakes the waiters and lets
//    one of them retry (errors are not cached).

#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace tokenring::serve {

class ResultCache {
 public:
  struct Options {
    /// Independent shards; rounded up to at least 1.
    std::size_t shards = 16;
    /// Ready entries kept per shard; least-recently-used beyond that are
    /// evicted on insert.
    std::size_t capacity_per_shard = 1024;
  };

  struct Outcome {
    std::string value;
    bool hit = false;
  };

  explicit ResultCache(const Options& options);

  /// Return the cached value for `key`, or run `compute` (without holding
  /// the shard lock) and cache its result. Throws whatever `compute`
  /// throws; a failed compute leaves the cache unchanged.
  Outcome get_or_compute(const std::string& key,
                         const std::function<std::string()>& compute);

  /// Non-blocking probe: the value if `key` is ready (bumping the hit
  /// counter and LRU position exactly like a get_or_compute hit), nullopt
  /// when missing or still in flight. The reactor path answers ready hits
  /// inline on the event-loop thread and routes everything else through
  /// the compute pool, so an event-loop thread never blocks on a
  /// single-flight wait.
  std::optional<std::string> try_get(const std::string& key);

  /// Ready entries across all shards (approximate under concurrency).
  std::size_t size() const;

  /// Advisory: true when `key` is cached or being computed right now, so
  /// answering it will not add compute load. Used by load shedding to
  /// keep serving hits while misses are refused; takes the shard lock but
  /// touches no LRU state or counters.
  bool likely_present(const std::string& key) const;

 private:
  struct Entry {
    bool ready = false;
    std::string value;
    /// Position in the shard's LRU list; valid only when ready.
    std::list<std::string>::iterator lru_pos;
  };

  struct Shard {
    mutable std::mutex mutex;
    std::condition_variable ready_cv;
    std::unordered_map<std::string, Entry> map;
    /// Most-recently-used keys first.
    std::list<std::string> lru;
  };

  Shard& shard_for(const std::string& key);

  Options options_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace tokenring::serve
