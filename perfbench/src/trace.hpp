// In-memory span recorder for the benchmark's traced runs.
//
// A span is (name, start, end, parent, tag): the tag carries the trial,
// batch-group or request id the span belongs to. Spans are appended to a
// per-thread shard with no lock on the hot path, kept in memory for the
// whole run, and written out as JSON lines when the run ends. A layer's
// self time is its span's duration minus the part of that interval its
// child spans cover (children may overlap, e.g. batch groups running on
// several pool threads under one point span).
//
// The recorder lives entirely in the benchmark: spans are taken around the
// calls the benchmark makes into each library module, never inside them.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (std::chrono::steady_clock).
std::uint64_t now_ns();

struct SpanRecord {
  std::uint64_t id = 0;      // unique within its Trace, > 0
  std::uint64_t parent = 0;  // 0 = root span
  const char* name = "";     // string literal; spans never own their name
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t tag = 0;     // trial, batch-group or request id
  std::uint32_t thread = 0;  // index of the recording thread's shard
};

class Trace {
 public:
  Trace();
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  /// A fresh span id, for spans whose children start before they end.
  std::uint64_t reserve_id() { return next_id_.fetch_add(1); }

  /// Append a finished span to the calling thread's shard (`thread` is
  /// filled in here). Safe to call from any number of threads at once.
  void add(SpanRecord span);

  /// Every span recorded so far, ordered by start time. Call only once
  /// the threads that recorded them have synchronized with the caller.
  std::vector<SpanRecord> spans() const;

  /// Write spans() as one JSON object per line. False on I/O failure.
  bool write_jsonl(const std::string& path) const;

 private:
  struct Shard {
    std::uint32_t thread = 0;
    std::vector<SpanRecord> spans;
  };
  Shard& local_shard();

  const std::uint64_t epoch_;  // distinguishes Traces in thread caches
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Shard>> shards_;  // guarded by mutex_
};

/// RAII span around one scope; does nothing when `trace` is null, so the
/// same code path serves the traced and the untraced run.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, const char* name, std::uint64_t parent = 0,
             std::uint64_t tag = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// This span's id (0 when untraced), to parent child spans.
  std::uint64_t id() const { return record_.id; }

 private:
  Trace* trace_;
  SpanRecord record_;
};

/// Self time of every span (aligned with `spans`): its duration minus the
/// union of its children's intervals clipped to its own.
std::vector<std::uint64_t> self_times_ns(const std::vector<SpanRecord>& spans);

struct NameTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

/// Count, summed duration and summed self time per span name.
std::map<std::string, NameTotals> totals_by_name(
    const std::vector<SpanRecord>& spans);

}  // namespace perfbench
