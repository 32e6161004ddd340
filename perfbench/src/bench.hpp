// Shared pieces of the end-to-end benchmark: the clock, seeded input
// derivation, sample statistics, the metric report and the span recorder
// of the traced run.
//
// The benchmark measures the program from outside. Every span is recorded
// by this directory's code around a call into a public function of src/;
// nothing inside the program is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace pb {

// ---- clock ---------------------------------------------------------------

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ms_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

// ---- inputs --------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;   ///< scratch space, created and removed by main
  std::string trace_dir;  ///< where the traced run writes its span file
};

/// splitmix64 of (seed, stream): independent, reproducible sub-seeds.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Running digest of the generated inputs, printed so that two runs can
/// show they sent identical traffic.
class Digest {
 public:
  void add(std::string_view bytes);
  void add(std::uint64_t value);
  std::string hex() const;

 private:
  std::uint64_t state_ = 0x6a09e667f3bcc908ull;
};

/// xxhash64 of a byte string (response bodies, frame pixels).
std::uint64_t hash_bytes(std::string_view bytes);

// ---- statistics ----------------------------------------------------------

/// Nearest-rank percentile, q in (0, 1]; 0 for an empty sample.
double percentile(std::vector<double> values, double q);

/// Samples strictly beyond the nearest-rank q percentile.
std::size_t beyond(std::size_t count, double q);

/// Peak resident set of this process, MiB.
double peak_rss_mib();

// ---- report --------------------------------------------------------------

/// What one workload run measured. End-to-end metrics are filled by the
/// untraced run, per-layer metrics by the traced run; main prints the one
/// set the run was asked for.
class Report {
 public:
  struct Value {
    double value = 0.0;
    std::string unit;
  };

  void end_to_end(const std::string& name, double value, std::string unit);
  void layer(const std::string& name, double value, std::string unit);

  /// Counts one attempted operation of request class `cls`; thread-safe.
  void attempt(const char* cls);
  /// Counts one failed operation of class `cls` and keeps its description;
  /// thread-safe. Nothing is retried: a failure is final.
  void fail(const char* cls, const std::string& what);

  const std::map<std::string, Value>& end_to_end() const { return e2e_; }
  const std::map<std::string, Value>& layers() const { return layers_; }
  std::uint64_t attempted() const;
  std::uint64_t failed() const;
  const std::vector<std::string>& failures() const { return failures_; }
  /// Attempted and failed operations per request class.
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> classes()
      const;

 private:
  std::map<std::string, Value> e2e_;
  std::map<std::string, Value> layers_;
  mutable std::mutex mutex_;
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> classes_;
  std::vector<std::string> failures_;  ///< the first few, for stderr
};

/// Prints "name = value unit [n=.., beyond=..]" for a latency percentile.
void print_percentile(const char* name, const std::vector<double>& sample,
                      double q);

// ---- tracing -------------------------------------------------------------

namespace trace {

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 for a root span
  std::uint64_t request = 0;  ///< spans of one request share it
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  const char* name = "";      ///< a string literal
  std::uint32_t thread = 0;
};

/// Turns span recording on or off for the calling thread. The traced run
/// alternates operations between the two so that the tracing overhead can
/// be read off one run.
void set_thread_enabled(bool on);
bool thread_enabled();

/// Adopts a remote parent for the calling thread (the handler of a request
/// whose client span travelled in a header). parent == 0 turns recording
/// off for this thread.
void adopt(std::uint64_t parent, std::uint64_t request);

/// A new request id; the caller's next root span carries it.
std::uint64_t begin_request();

/// RAII span: records [construction, destruction) under the thread's
/// current span when recording is on for this thread, and is a no-op
/// otherwise.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const noexcept { return id_; }

 private:
  const char* name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::int64_t start_ns_ = 0;
};

/// Records a measured value (not a span) under `name` when recording is on
/// for the calling thread.
void value(const char* name, double v);

/// Every span and value recorded so far. Call only after the threads that
/// record have stopped recording.
std::vector<SpanRecord> spans();
std::map<std::string, std::vector<double>> values();

/// Self time of each span (its duration minus the part its children
/// cover), grouped by span name, in milliseconds.
std::map<std::string, std::vector<double>> self_ms(
    const std::vector<SpanRecord>& spans);

/// Share of root-span time that no child span covers.
double unattributed_frac(const std::vector<SpanRecord>& spans);

/// Writes the spans as JSON lines; returns false on an I/O failure.
bool write_jsonl(const std::vector<SpanRecord>& spans,
                 const std::string& path);

}  // namespace trace

}  // namespace pb
