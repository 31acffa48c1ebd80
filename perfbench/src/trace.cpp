#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

std::atomic<std::uint64_t> next_epoch{1};

struct ShardCache {
  std::uint64_t epoch = 0;
  void* shard = nullptr;
};
thread_local ShardCache shard_cache;

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Trace::Trace() : epoch_(next_epoch.fetch_add(1)) {}

Trace::Shard& Trace::local_shard() {
  if (shard_cache.epoch != epoch_) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto shard = std::make_unique<Shard>();
    shard->thread = static_cast<std::uint32_t>(shards_.size());
    shard->spans.reserve(4096);
    shard_cache = {epoch_, shard.get()};
    shards_.push_back(std::move(shard));
  }
  return *static_cast<Shard*>(shard_cache.shard);
}

void Trace::add(SpanRecord span) {
  Shard& shard = local_shard();
  span.thread = shard.thread;
  shard.spans.push_back(span);
}

std::vector<SpanRecord> Trace::spans() const {
  std::vector<SpanRecord> all;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& shard : shards_) {
      all.insert(all.end(), shard->spans.begin(), shard->spans.end());
    }
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.id < b.id;
            });
  return all;
}

bool Trace::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const SpanRecord& s : spans()) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\""
        << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"tag\":" << s.tag
        << ",\"thread\":" << s.thread << "}\n";
  }
  return static_cast<bool>(out.flush());
}

ScopedSpan::ScopedSpan(Trace* trace, const char* name, std::uint64_t parent,
                       std::uint64_t tag)
    : trace_(trace) {
  if (trace_ == nullptr) return;
  record_.id = trace_->reserve_id();
  record_.parent = parent;
  record_.name = name;
  record_.tag = tag;
  record_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (trace_ == nullptr) return;
  record_.end_ns = now_ns();
  trace_->add(record_);
}

std::vector<std::uint64_t> self_times_ns(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  index_of.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;

  // Child intervals, clipped to the parent's own interval.
  using Interval = std::pair<std::uint64_t, std::uint64_t>;
  std::vector<std::vector<Interval>> children(spans.size());
  for (const SpanRecord& s : spans) {
    const auto it = index_of.find(s.parent);
    if (s.parent == 0 || it == index_of.end()) continue;
    const SpanRecord& p = spans[it->second];
    const std::uint64_t lo = std::max(s.start_ns, p.start_ns);
    const std::uint64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) children[it->second].emplace_back(lo, hi);
  }

  std::vector<std::uint64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::uint64_t covered = 0;
    std::uint64_t run_lo = 0;
    std::uint64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : kids) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    const std::uint64_t duration = spans[i].end_ns - spans[i].start_ns;
    self[i] = duration - std::min(duration, covered);
  }
  return self;
}

std::map<std::string, NameTotals> totals_by_name(
    const std::vector<SpanRecord>& spans) {
  const std::vector<std::uint64_t> self = self_times_ns(spans);
  std::map<std::string, NameTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    NameTotals& t = totals[spans[i].name];
    ++t.count;
    t.total_ns += spans[i].end_ns - spans[i].start_ns;
    t.self_ns += self[i];
  }
  return totals;
}

}  // namespace perfbench
