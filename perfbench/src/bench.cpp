#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <span>

#include "util/xxhash.hpp"

namespace pb {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void Digest::add(std::string_view bytes) {
  state_ = fv::xxhash64(std::as_bytes(std::span(bytes.data(), bytes.size())),
                        state_);
}

void Digest::add(std::uint64_t value) {
  char buffer[sizeof value];
  std::memcpy(buffer, &value, sizeof value);
  add(std::string_view(buffer, sizeof buffer));
}

std::string Digest::hex() const {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(state_));
  return buffer;
}

std::uint64_t hash_bytes(std::string_view bytes) {
  return fv::xxhash64(std::as_bytes(std::span(bytes.data(), bytes.size())));
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = std::min(values.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(index),
                   values.end());
  return values[index];
}

std::size_t beyond(std::size_t count, double q) {
  const std::size_t rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(count)));
  return count > rank ? count - rank : 0;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Report::end_to_end(const std::string& name, double value,
                        std::string unit) {
  e2e_[name] = Value{value, std::move(unit)};
}

void Report::layer(const std::string& name, double value, std::string unit) {
  layers_[name] = Value{value, std::move(unit)};
}

void Report::attempt(const char* cls) {
  std::scoped_lock lock(mutex_);
  ++classes_[cls].first;
}

void Report::fail(const char* cls, const std::string& what) {
  std::scoped_lock lock(mutex_);
  ++classes_[cls].second;
  if (failures_.size() < 8) failures_.push_back(std::string(cls) + ": " + what);
}

std::uint64_t Report::attempted() const {
  std::scoped_lock lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [cls, counts] : classes_) total += counts.first;
  return total;
}

std::uint64_t Report::failed() const {
  std::scoped_lock lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [cls, counts] : classes_) total += counts.second;
  return total;
}

std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>
Report::classes() const {
  std::scoped_lock lock(mutex_);
  return classes_;
}

void print_percentile(const char* name, const std::vector<double>& sample,
                      double q) {
  std::printf("  %-22s %12.4f ms  [n=%zu, beyond=%zu]\n", name,
              percentile(sample, q), sample.size(), beyond(sample.size(), q));
}

namespace trace {

namespace {

struct ThreadBuffer {
  std::uint32_t thread = 0;
  std::vector<SpanRecord> spans;
  std::vector<std::pair<const char*, double>> values;
};

/// Buffers outlive their threads (the deque never moves its elements), so
/// spans recorded by the server's listener thread are still readable after
/// the run.
std::mutex g_registry_mutex;
std::deque<ThreadBuffer> g_buffers;
std::atomic<std::uint64_t> g_next_id{1};

struct ThreadState {
  bool enabled = false;
  std::uint64_t current = 0;  ///< innermost open span (or adopted parent)
  std::uint64_t request = 0;
  ThreadBuffer* buffer = nullptr;
};

thread_local ThreadState t_state;

ThreadBuffer& buffer() {
  if (t_state.buffer == nullptr) {
    std::scoped_lock lock(g_registry_mutex);
    g_buffers.emplace_back();
    g_buffers.back().thread = static_cast<std::uint32_t>(g_buffers.size());
    t_state.buffer = &g_buffers.back();
  }
  return *t_state.buffer;
}

}  // namespace

void set_thread_enabled(bool on) {
  t_state.enabled = on;
  t_state.current = 0;
  t_state.request = 0;
}

bool thread_enabled() { return t_state.enabled; }

void adopt(std::uint64_t parent, std::uint64_t request) {
  t_state.enabled = parent != 0;
  t_state.current = parent;
  t_state.request = request;
}

std::uint64_t begin_request() {
  t_state.request = g_next_id.fetch_add(1, std::memory_order_relaxed);
  return t_state.request;
}

Span::Span(const char* name) : name_(name) {
  if (!t_state.enabled) return;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_state.current;
  t_state.current = id_;
  start_ns_ = now_ns();
}

Span::~Span() {
  if (id_ == 0) return;
  const std::int64_t end = now_ns();
  ThreadBuffer& out = buffer();
  out.spans.push_back(SpanRecord{id_, parent_, t_state.request, start_ns_,
                                 end, name_, out.thread});
  t_state.current = parent_;
}

void value(const char* name, double v) {
  if (!t_state.enabled) return;
  buffer().values.emplace_back(name, v);
}

std::vector<SpanRecord> spans() {
  std::scoped_lock lock(g_registry_mutex);
  std::vector<SpanRecord> all;
  for (const ThreadBuffer& b : g_buffers) {
    all.insert(all.end(), b.spans.begin(), b.spans.end());
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns < b.start_ns;
            });
  return all;
}

std::map<std::string, std::vector<double>> values() {
  std::scoped_lock lock(g_registry_mutex);
  std::map<std::string, std::vector<double>> out;
  for (const ThreadBuffer& b : g_buffers) {
    for (const auto& [name, v] : b.values) out[name].push_back(v);
  }
  return out;
}

namespace {

/// Nanoseconds of [start, end) covered by the union of `children`
/// (clipped to the interval; children may overlap when they ran on other
/// threads).
std::int64_t covered_ns(std::int64_t start, std::int64_t end,
                        std::vector<std::pair<std::int64_t, std::int64_t>>
                            children) {
  std::sort(children.begin(), children.end());
  std::int64_t covered = 0;
  std::int64_t cursor = start;
  for (auto [a, b] : children) {
    a = std::max(a, cursor);
    b = std::min(b, end);
    if (b > a) {
      covered += b - a;
      cursor = b;
    }
  }
  return covered;
}

std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
children_of(const std::vector<SpanRecord>& spans) {
  std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  return children;
}

}  // namespace

std::map<std::string, std::vector<double>> self_ms(
    const std::vector<SpanRecord>& spans) {
  const auto children = children_of(spans);
  std::map<std::string, std::vector<double>> out;
  for (const SpanRecord& s : spans) {
    std::int64_t covered = 0;
    if (const auto it = children.find(s.id); it != children.end()) {
      covered = covered_ns(s.start_ns, s.end_ns, it->second);
    }
    out[s.name].push_back(
        static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6);
  }
  return out;
}

double unattributed_frac(const std::vector<SpanRecord>& spans) {
  const auto children = children_of(spans);
  double total = 0.0;
  double uncovered = 0.0;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) continue;
    std::int64_t covered = 0;
    if (const auto it = children.find(s.id); it != children.end()) {
      covered = covered_ns(s.start_ns, s.end_ns, it->second);
    }
    total += static_cast<double>(s.end_ns - s.start_ns);
    uncovered += static_cast<double>(s.end_ns - s.start_ns - covered);
  }
  return total > 0.0 ? uncovered / total : 0.0;
}

bool write_jsonl(const std::vector<SpanRecord>& spans,
                 const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  char line[256];
  for (const SpanRecord& s : spans) {
    const int n = std::snprintf(
        line, sizeof line,
        "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,\"thread\":%u,"
        "\"name\":\"%s\",\"start_us\":%.3f,\"dur_us\":%.3f}\n",
        static_cast<unsigned long long>(s.id),
        static_cast<unsigned long long>(s.parent),
        static_cast<unsigned long long>(s.request), s.thread, s.name,
        static_cast<double>(s.start_ns - origin) / 1e3,
        static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out.write(line, n);
  }
  return static_cast<bool>(out);
}

}  // namespace trace

}  // namespace pb
