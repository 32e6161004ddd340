// AnalysisService — ForestView sessions as a service.
//
// The paper's merged interface and display wall are multi-user systems;
// this is the front door. One process holds ONE shared read-only
// compendium (datasets + a similarity engine, ideally borrowed-mapped from
// the artifact store so N sessions — and N processes — share one page-cache
// mapping) and serves N concurrent sessions over it:
//
//  * sessions   — per-user core::Session state (selection, pane order,
//                 prefs, event log) keyed by session id, created/read/
//                 deleted over HTTP, each serialized by its own mutex.
//                 Every session aliases the compendium's datasets and the
//                 one gene catalog the constructor builds, and is built
//                 and freed outside the service lock;
//  * jobs       — long-running analyses (hierarchical clustering, top-k
//                 neighbors, SPELL search) submitted asynchronously:
//                 submit → poll → fetch result. Jobs execute on a bounded
//                 par::ThreadPool; admission beyond the bound is a typed
//                 fv::OverloadedError (HTTP 503), never an unbounded queue;
//  * result cache — every job's response body is a pure function of
//                 (compendium content, job params), so it is cached under a
//                 store::KeyBuilder content key chained off the engine/
//                 SPELL content keys. Identical requests — same user or
//                 not — are served the SAME BYTES without recompute, and
//                 optionally persist as kBlob artifacts so a restarted
//                 server stays warm.
//
// Robustness follows the mpx/store patterns: every wait is bounded, every
// failure is a typed fv::Error mapped to an HTTP status
// (error_http_status), request-path fault injection draws on the seeded
// core (util/fault.hpp), and a simulated mid-job process crash
// (fv::InjectedCrash during result persist) fails ONLY that job while the
// artifact store stays fsck-repairable — proven by the chaos suite.
//
// Response bodies are byte-deterministic (serve/json.hpp): the same
// request yields bit-identical bytes whether computed cold, concurrently
// with 7 other users, or served from the cache. Tests and bench_serve
// assert this, and the content-addressed cache depends on it.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "par/thread_pool.hpp"
#include "serve/http.hpp"
#include "serve/json.hpp"
#include "sim/similarity_engine.hpp"
#include "spell/spell.hpp"
#include "store/cached.hpp"
#include "util/fault.hpp"

namespace fv::serve {

/// The one read-only compendium every session reads. All members are
/// immutable after construction — that immutability (plus the engine's
/// storage-blind const query paths) is what makes concurrent sessions
/// race-free without a compendium lock.
struct SharedCompendium {
  /// Datasets for SPELL and per-session core::Session views.
  std::shared_ptr<const std::vector<expr::Dataset>> datasets;
  /// Gene-profile engine for clustering / top-k jobs. Borrowed-mapped when
  /// opened through open_shared_compendium, so sessions share one mapping.
  std::shared_ptr<const sim::SimilarityEngine> engine;
  /// Prebuilt SPELL banks (null disables spell jobs).
  std::shared_ptr<const spell::SpellSearch> spell;
  /// Content keys the result cache chains from (0 when the part is absent).
  store::ArtifactKey engine_content_key = 0;
  store::ArtifactKey spell_content_key = 0;
};

/// Computes the content keys and assembles a compendium from parts the
/// caller already has (storeless tests, fixtures).
SharedCompendium make_shared_compendium(
    std::shared_ptr<const sim::SimilarityEngine> engine,
    std::shared_ptr<const std::vector<expr::Dataset>> datasets = nullptr,
    std::shared_ptr<const spell::SpellSearch> spell = nullptr);

/// Opens the compendium through the artifact store: the engine via
/// open_or_build_engine (zero-copy shared mapping on every path where a
/// trustworthy artifact exists), the SPELL banks via open_or_build_spell
/// when `datasets` is given (borrowed on warm opens). `input_key` and
/// `load_matrix` are as in open_or_build_engine.
SharedCompendium open_shared_compendium(
    store::ArtifactStore& store, store::ArtifactKey input_key,
    const std::function<expr::ExpressionMatrix()>& load_matrix,
    std::shared_ptr<const std::vector<expr::Dataset>> datasets,
    sim::Metric metric, par::ThreadPool& pool);

/// fault_hash stream ids of the request-path decisions.
inline constexpr std::uint64_t kServeRejectStream = 0x5e21;
inline constexpr std::uint64_t kServeDelayStream = 0x5e22;

/// Deterministic request-path fault injection: per request index, one draw
/// per decision on the seeded core (util/fault.hpp, streams above), so a
/// seed replays the exact same rejected/delayed request set under any
/// interleaving of client threads — the chaos suite's determinism hook.
/// Each rate must lie in [0, 1]; AnalysisService throws InvalidArgument
/// otherwise.
struct ServeFaultSpec {
  std::uint64_t seed = 0;
  double reject_rate = 0.0;   ///< P(request answered 503, body flags injected)
  double delay_rate = 0.0;    ///< P(request handling sleeps delay_ms first)
  std::uint32_t delay_ms = 0;

  bool any() const noexcept { return reject_rate > 0.0 || delay_rate > 0.0; }

  /// Whether request `tick` is rejected, or delayed.
  bool rejects(std::uint64_t tick) const noexcept {
    return fault_pick(seed, kServeRejectStream, {tick}, {reject_rate}) == 0;
  }
  bool delays(std::uint64_t tick) const noexcept {
    return fault_pick(seed, kServeDelayStream, {tick}, {delay_rate}) == 0;
  }
};

/// HTTP status of a typed failure — the one mapping table, used by the
/// request dispatcher and pinned by tests:
///   InvalidArgument / ParseError → 400   (caller's request is wrong)
///   OverloadedError              → 503   (retry later, nothing happened)
///   TimeoutError                 → 504   (bounded wait expired)
///   CorruptArtifact/Message,
///   StaleArtifact                → 502   (backing data failed integrity)
///   IoError / LogicError / other → 500
int error_http_status(const Error& error);

enum class JobState { kQueued, kRunning, kDone, kFailed };
const char* job_state_name(JobState state);

/// Service counters (relaxed atomics, mpx::FaultStats convention).
struct ServiceStats {
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> jobs_submitted{0};
  std::atomic<std::uint64_t> jobs_rejected{0};   ///< OverloadedError admissions
  std::atomic<std::uint64_t> computes{0};        ///< job bodies actually run
  std::atomic<std::uint64_t> cache_hits{0};      ///< memory or blob cache
  /// Submits attached to an in-flight job of the same key (single flight).
  std::atomic<std::uint64_t> jobs_coalesced{0};
  std::atomic<std::uint64_t> jobs_failed{0};
  std::atomic<std::uint64_t> jobs_reaped{0};
  std::atomic<std::uint64_t> injected_rejects{0};
  std::atomic<std::uint64_t> injected_delays{0};
};

class AnalysisService {
 public:
  struct Options {
    /// Worker threads of the job pool: the job-level concurrency of the
    /// server. Compute *inside* a job uses the compute pool passed to the
    /// constructor (a job task must never block on its own pool).
    std::size_t job_workers = 2;
    /// Sessions beyond this are refused with OverloadedError (503).
    std::size_t max_sessions = 64;
    /// Queued + running jobs beyond this are refused with OverloadedError
    /// (503) — graceful saturation, not an unbounded queue.
    std::size_t max_active_jobs = 8;
    /// In-memory result-cache entries (oldest-inserted evicted beyond it).
    std::size_t result_cache_entries = 256;
    /// Logical-time TTL for reaping: a job untouched (no poll/fetch) for
    /// more than this many requests is considered client-abandoned and
    /// reaped on the next submit (and by reap_abandoned()). 0 = never.
    std::uint64_t job_ttl_requests = 0;
    ServeFaultSpec faults;
    /// Optional persistent result cache: job response bodies are stored as
    /// kBlob artifacts here and served back bit-identically after restart.
    store::ArtifactStore* store = nullptr;
  };

  /// `compendium.engine` is required (cluster/topk jobs); datasets are
  /// required for session views; spell may be null. `compute_pool` runs
  /// the parallel phases inside jobs and must NOT be the job pool.
  AnalysisService(SharedCompendium compendium, par::ThreadPool& compute_pool,
                  Options options);
  AnalysisService(SharedCompendium compendium, par::ThreadPool& compute_pool)
      : AnalysisService(std::move(compendium), compute_pool, Options{}) {}
  ~AnalysisService();

  AnalysisService(const AnalysisService&) = delete;
  AnalysisService& operator=(const AnalysisService&) = delete;

  /// The request dispatcher — thread-safe, one call per HTTP request.
  /// Endpoints (all JSON): see src/serve/README.md for the contract table.
  HttpResponse handle(const HttpRequest& request);

  /// Blocks until job `job_id` reaches a terminal state or the deadline
  /// expires — bounded wait, throws fv::TimeoutError on expiry and
  /// fv::InvalidArgument on an unknown job id.
  void wait_job(const std::string& job_id, std::chrono::milliseconds deadline);

  /// Removes jobs whose last client touch is older than job_ttl_requests
  /// logical ticks; returns how many were reaped. No-op when TTL is 0.
  std::size_t reap_abandoned();

  ServiceStats& stats() noexcept { return stats_; }
  std::size_t session_count() const;
  std::size_t active_jobs() const;
  const SharedCompendium& compendium() const noexcept { return compendium_; }

 private:
  struct ServeSession {
    std::string id;
    std::unique_ptr<core::Session> session;
    std::uint64_t created_tick = 0;
    std::vector<std::string> job_ids;
    mutable std::mutex mutex;  ///< serializes session mutations
  };

  struct JobRecord {
    std::string id;
    std::string session_id;
    std::string type;
    JsonValue params;  ///< validated request params (for status echoes)
    JobState state = JobState::kQueued;
    bool cached = false;
    /// Names the result bytes when kDone. The bytes themselves live only
    /// in the bounded result cache (and the store, when set), so finished
    /// jobs do not pin result memory past the cache bound.
    store::ArtifactKey cache_key = 0;
    std::string error;             ///< message when kFailed
    int error_status = 500;        ///< status when kFailed
    std::uint64_t last_touch = 0;  ///< logical request tick
    /// Same-key submits that arrived while this job was in flight; run_job
    /// gives them its terminal state. Guarded by mutex_.
    std::vector<std::shared_ptr<JobRecord>> followers;
  };

  HttpResponse dispatch(const HttpRequest& request, std::uint64_t tick);

  HttpResponse handle_session_create(const HttpRequest& request,
                                     std::uint64_t tick);
  HttpResponse handle_session_list() const;
  HttpResponse handle_session_get(const std::string& id) const;
  HttpResponse handle_session_delete(const std::string& id);
  HttpResponse handle_select(const std::string& id,
                             const HttpRequest& request);
  HttpResponse handle_job_submit(const std::string& session_id,
                                 const HttpRequest& request,
                                 std::uint64_t tick);
  HttpResponse handle_job_status(const std::string& session_id,
                                 const std::string& job_id,
                                 const HttpRequest& request,
                                 std::uint64_t tick);
  HttpResponse handle_job_result(const std::string& session_id,
                                 const std::string& job_id,
                                 std::uint64_t tick);
  HttpResponse handle_stats() const;

  /// Computes one job's response body — the pure function the cache keys.
  std::string compute_job(const std::string& type, const JsonValue& params);
  /// Derives the content-addressed cache key of (type, params).
  store::ArtifactKey job_cache_key(const std::string& type,
                                   const JsonValue& params) const;
  void run_job(std::shared_ptr<JobRecord> job);
  /// A job's result bytes: from the store when set (computed and
  /// persisted on a miss), else computed. `warm` says the store had them.
  std::shared_ptr<const std::string> produce_result(const JobRecord& job,
                                                    bool& warm);
  void cache_insert_locked(store::ArtifactKey key,
                           std::shared_ptr<const std::string> result);
  std::size_t reap_locked(std::uint64_t now);

  std::shared_ptr<ServeSession> find_session(const std::string& id) const;
  std::shared_ptr<JobRecord> find_job(const std::string& session_id,
                                      const std::string& job_id) const;

  SharedCompendium compendium_;
  /// The gene catalog of compendium_.datasets, built once; every session
  /// aliases it.
  std::shared_ptr<const core::GeneCatalog> catalog_;
  par::ThreadPool& compute_pool_;
  Options options_;

  mutable std::mutex mutex_;
  std::condition_variable job_cv_;
  std::map<std::string, std::shared_ptr<ServeSession>> sessions_;
  std::map<std::string, std::shared_ptr<JobRecord>> jobs_;
  /// Insertion-ordered in-memory result cache (key → body bytes).
  std::map<store::ArtifactKey, std::shared_ptr<const std::string>> cache_;
  std::vector<store::ArtifactKey> cache_order_;
  /// Cache key → the queued or running job computing it (single flight).
  std::map<store::ArtifactKey, std::shared_ptr<JobRecord>> in_flight_;
  std::size_t session_seq_ = 0;
  std::size_t job_seq_ = 0;
  std::size_t active_jobs_ = 0;

  std::atomic<std::uint64_t> request_tick_{0};
  mutable ServiceStats stats_;

  /// Declared last so it is destroyed FIRST: its destructor joins the job
  /// workers, guaranteeing no job task can touch the maps above while they
  /// are being torn down.
  par::ThreadPool job_pool_;
};

}  // namespace fv::serve
