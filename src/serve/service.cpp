#include "serve/service.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <initializer_list>
#include <string_view>
#include <thread>

#include "cluster/distance.hpp"
#include "cluster/hclust.hpp"
#include "util/triangular.hpp"

namespace fv::serve {

namespace {

HttpResponse json_response(int status, const JsonValue& body) {
  HttpResponse response;
  response.status = status;
  response.body = body.dump();
  return response;
}

HttpResponse error_response(int status, const std::string& message) {
  JsonValue body = JsonValue::object();
  body["error"] = message;
  return json_response(status, body);
}

HttpResponse not_found(const std::string& what) {
  return error_response(404, "no such " + what);
}

HttpResponse method_not_allowed() {
  return error_response(405, "method not allowed on this endpoint");
}

/// Splits "/sessions/s1/jobs" into {"sessions", "s1", "jobs"}.
std::vector<std::string> path_segments(const std::string& path) {
  std::vector<std::string> segments;
  std::size_t cursor = 0;
  while (cursor < path.size()) {
    if (path[cursor] == '/') {
      ++cursor;
      continue;
    }
    const std::size_t next = path.find('/', cursor);
    segments.emplace_back(
        path.substr(cursor, next == std::string::npos ? next : next - cursor));
    if (next == std::string::npos) break;
    cursor = next;
  }
  return segments;
}

// --- request field helpers: client mistakes are InvalidArgument (400) ---

const JsonValue& require_field(const JsonValue& body, const char* key) {
  const JsonValue* field = body.find(key);
  FV_REQUIRE(field != nullptr,
             std::string("missing required field \"") + key + "\"");
  return *field;
}

std::string string_field(const JsonValue& body, const char* key) {
  const JsonValue& field = require_field(body, key);
  FV_REQUIRE(field.type() == JsonValue::Type::kString,
             std::string("field \"") + key + "\" must be a string");
  return field.as_string();
}

double number_field_or(const JsonValue& body, const char* key,
                       double fallback) {
  const JsonValue* field = body.find(key);
  if (field == nullptr) return fallback;
  FV_REQUIRE(field->type() == JsonValue::Type::kNumber,
             std::string("field \"") + key + "\" must be a number");
  return field->as_number();
}

std::size_t index_field_or(const JsonValue& body, const char* key,
                           std::size_t fallback) {
  const double value = number_field_or(body, key,
                                       static_cast<double>(fallback));
  FV_REQUIRE(value >= 0 && value == std::nearbyint(value),
             std::string("field \"") + key +
                 "\" must be a non-negative integer");
  return static_cast<std::size_t>(value);
}

std::vector<std::string> string_list_field(const JsonValue& body,
                                           const char* key) {
  const JsonValue& field = require_field(body, key);
  FV_REQUIRE(field.type() == JsonValue::Type::kArray,
             std::string("field \"") + key + "\" must be an array");
  std::vector<std::string> out;
  out.reserve(field.items().size());
  for (const JsonValue& item : field.items()) {
    FV_REQUIRE(item.type() == JsonValue::Type::kString,
               std::string("field \"") + key +
                   "\" must contain only strings");
    out.push_back(item.as_string());
  }
  return out;
}

cluster::Linkage linkage_from_name(const std::string& name) {
  if (name == "single") return cluster::Linkage::kSingle;
  if (name == "complete") return cluster::Linkage::kComplete;
  if (name == "average") return cluster::Linkage::kAverage;
  if (name == "ward") return cluster::Linkage::kWard;
  if (name == "centroid") return cluster::Linkage::kCentroid;
  if (name == "median") return cluster::Linkage::kMedian;
  throw InvalidArgument("unknown linkage \"" + name + "\"");
}

/// Rejects any member of a job body outside "type" and the type's own
/// fields: a misspelled parameter must fail, not run with its default.
void reject_unknown_fields(const JsonValue& body, const std::string& type,
                           std::initializer_list<std::string_view> fields) {
  for (const auto& [key, value] : body.members()) {
    if (key == "type" ||
        std::find(fields.begin(), fields.end(), key) != fields.end()) {
      continue;
    }
    throw InvalidArgument("unrecognized field \"" + key + "\" for a " +
                          type + " job");
  }
}

sim::TopKStrategy strategy_from_name(const std::string& name) {
  if (name == "auto") return sim::TopKStrategy::kAuto;
  if (name == "exact") return sim::TopKStrategy::kExact;
  if (name == "pruned") return sim::TopKStrategy::kPruned;
  if (name == "approx") return sim::TopKStrategy::kApprox;
  throw InvalidArgument("unknown top-k strategy \"" + name + "\"");
}

}  // namespace

SharedCompendium make_shared_compendium(
    std::shared_ptr<const sim::SimilarityEngine> engine,
    std::shared_ptr<const std::vector<expr::Dataset>> datasets,
    std::shared_ptr<const spell::SpellSearch> spell) {
  SharedCompendium compendium;
  compendium.engine = std::move(engine);
  compendium.datasets = std::move(datasets);
  compendium.spell = std::move(spell);
  if (compendium.engine != nullptr) {
    compendium.engine_content_key =
        store::EngineCodec::content_key(*compendium.engine);
  }
  if (compendium.datasets != nullptr) {
    compendium.spell_content_key =
        store::SpellCodec::content_key(*compendium.datasets);
  }
  return compendium;
}

SharedCompendium open_shared_compendium(
    store::ArtifactStore& store, store::ArtifactKey input_key,
    const std::function<expr::ExpressionMatrix()>& load_matrix,
    std::shared_ptr<const std::vector<expr::Dataset>> datasets,
    sim::Metric metric, par::ThreadPool& pool) {
  auto engine =
      std::make_shared<sim::SimilarityEngine>(store::open_or_build_engine(
          store, input_key, load_matrix, metric));
  std::shared_ptr<const spell::SpellSearch> spell;
  if (datasets != nullptr) {
    spell = std::make_shared<spell::SpellSearch>(
        store::open_or_build_spell(store, *datasets, pool));
  }
  return make_shared_compendium(std::move(engine), std::move(datasets),
                                std::move(spell));
}

int error_http_status(const Error& error) {
  if (dynamic_cast<const InvalidArgument*>(&error) != nullptr ||
      dynamic_cast<const ParseError*>(&error) != nullptr) {
    return 400;
  }
  if (dynamic_cast<const OverloadedError*>(&error) != nullptr) return 503;
  if (dynamic_cast<const TimeoutError*>(&error) != nullptr) return 504;
  if (dynamic_cast<const CorruptArtifactError*>(&error) != nullptr ||
      dynamic_cast<const CorruptMessageError*>(&error) != nullptr ||
      dynamic_cast<const StaleArtifactError*>(&error) != nullptr) {
    return 502;
  }
  return 500;
}

const char* job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
  }
  return "unknown";
}

AnalysisService::AnalysisService(SharedCompendium compendium,
                                 par::ThreadPool& compute_pool,
                                 Options options)
    : compendium_(std::move(compendium)),
      compute_pool_(compute_pool),
      options_(options),
      job_pool_(options.job_workers) {
  FV_REQUIRE(compendium_.engine != nullptr,
             "AnalysisService needs a similarity engine");
  FV_REQUIRE(compendium_.datasets != nullptr && !compendium_.datasets->empty(),
             "AnalysisService needs a non-empty shared dataset vector");
  catalog_ = std::make_shared<const core::GeneCatalog>(*compendium_.datasets);
  FV_REQUIRE(options_.job_workers >= 1, "job queue needs at least one worker");
  FV_REQUIRE(options_.max_active_jobs >= 1,
             "job admission bound must be at least 1");
  check_fault_rates({options_.faults.reject_rate}, "reject_rate");
  check_fault_rates({options_.faults.delay_rate}, "delay_rate");
}

AnalysisService::~AnalysisService() {
  // Jobs hold shared_ptr<JobRecord>, not map iterators, so they survive map
  // teardown — but they also read the compendium and the cache, so the pool
  // must drain first. job_pool_ is the last member (destroyed first); the
  // explicit wait keeps the invariant visible.
  job_pool_.wait_idle();
}

HttpResponse AnalysisService::handle(const HttpRequest& request) {
  const std::uint64_t tick = request_tick_.fetch_add(1) + 1;
  stats_.requests.fetch_add(1, std::memory_order_relaxed);

  // Deterministic request-path faults: decided by (seed, stream, tick), so
  // a seeded run rejects/delays the exact same request set every time, no
  // matter how client threads interleave.
  const ServeFaultSpec& faults = options_.faults;
  if (faults.any()) {
    if (faults.rejects(tick)) {
      stats_.injected_rejects.fetch_add(1, std::memory_order_relaxed);
      JsonValue body = JsonValue::object();
      body["error"] = "injected overload";
      body["injected"] = true;
      return json_response(503, body);
    }
    if (faults.delays(tick)) {
      stats_.injected_delays.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(faults.delay_ms));
    }
  }

  try {
    return dispatch(request, tick);
  } catch (const Error& error) {
    return error_response(error_http_status(error), error.what());
  }
}

HttpResponse AnalysisService::dispatch(const HttpRequest& request,
                                       std::uint64_t tick) {
  const std::vector<std::string> seg = path_segments(request.path);
  if (seg.size() == 1 && seg[0] == "healthz") {
    if (request.method != "GET") return method_not_allowed();
    JsonValue body = JsonValue::object();
    body["status"] = "ok";
    return json_response(200, body);
  }
  if (seg.size() == 1 && seg[0] == "stats") {
    if (request.method != "GET") return method_not_allowed();
    return handle_stats();
  }
  if (!seg.empty() && seg[0] == "sessions") {
    if (seg.size() == 1) {
      if (request.method == "POST") return handle_session_create(request, tick);
      if (request.method == "GET") return handle_session_list();
      return method_not_allowed();
    }
    if (seg.size() == 2) {
      if (request.method == "GET") return handle_session_get(seg[1]);
      if (request.method == "DELETE") return handle_session_delete(seg[1]);
      return method_not_allowed();
    }
    if (seg.size() == 3 && seg[2] == "select") {
      if (request.method != "POST") return method_not_allowed();
      return handle_select(seg[1], request);
    }
    if (seg.size() == 3 && seg[2] == "jobs") {
      if (request.method != "POST") return method_not_allowed();
      return handle_job_submit(seg[1], request, tick);
    }
    if (seg.size() == 4 && seg[2] == "jobs") {
      if (request.method != "GET") return method_not_allowed();
      return handle_job_status(seg[1], seg[3], request, tick);
    }
    if (seg.size() == 5 && seg[2] == "jobs" && seg[4] == "result") {
      if (request.method != "GET") return method_not_allowed();
      return handle_job_result(seg[1], seg[3], tick);
    }
  }
  return not_found("endpoint");
}

HttpResponse AnalysisService::handle_session_create(const HttpRequest& request,
                                                    std::uint64_t tick) {
  // Body is optional; when present it must at least be valid JSON.
  if (!request.body.empty()) parse_json(request.body);
  // Built before the lock, so no other request waits on it. A session the
  // full table refuses is freed after the lock is released.
  auto serve_session = std::make_shared<ServeSession>();
  serve_session->session =
      std::make_unique<core::Session>(compendium_.datasets, catalog_);
  serve_session->created_tick = tick;
  {
    std::scoped_lock lock(mutex_);
    if (sessions_.size() >= options_.max_sessions) {
      throw OverloadedError("session table full (" +
                            std::to_string(options_.max_sessions) +
                            " sessions); retry later");
    }
    serve_session->id = "s" + std::to_string(++session_seq_);
    sessions_[serve_session->id] = serve_session;
  }
  JsonValue body = JsonValue::object();
  body["session"] = serve_session->id;
  body["datasets"] = serve_session->session->dataset_count();
  return json_response(201, body);
}

HttpResponse AnalysisService::handle_session_list() const {
  std::scoped_lock lock(mutex_);
  JsonValue list = JsonValue::array();
  for (const auto& [id, session] : sessions_) list.push(id);
  JsonValue body = JsonValue::object();
  body["count"] = sessions_.size();
  body["sessions"] = std::move(list);
  return json_response(200, body);
}

HttpResponse AnalysisService::handle_session_get(const std::string& id) const {
  const std::shared_ptr<ServeSession> serve_session = find_session(id);
  if (serve_session == nullptr) return not_found("session");
  JsonValue body = JsonValue::object();
  {
    std::scoped_lock session_lock(serve_session->mutex);
    body["id"] = serve_session->id;
    body["created"] = serve_session->created_tick;
    body["datasets"] = serve_session->session->dataset_count();
    body["selection"] = serve_session->session->selection().size();
    body["operations"] = serve_session->session->operation_count();
    JsonValue jobs = JsonValue::array();
    for (const std::string& job_id : serve_session->job_ids) jobs.push(job_id);
    body["jobs"] = std::move(jobs);
  }
  return json_response(200, body);
}

HttpResponse AnalysisService::handle_session_delete(const std::string& id) {
  // Moved out of the table under the lock; unless a concurrent request
  // still holds it, the session is freed when this goes out of scope,
  // after the lock is released.
  std::shared_ptr<ServeSession> removed;
  std::size_t jobs_dropped = 0;
  {
    std::scoped_lock lock(mutex_);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return not_found("session");
    // Drop the session's job records too: polls for them 404 from here on.
    // Running jobs finish harmlessly on their own shared_ptr.
    for (auto job_it = jobs_.begin(); job_it != jobs_.end();) {
      if (job_it->second->session_id == id) {
        job_it = jobs_.erase(job_it);
        ++jobs_dropped;
      } else {
        ++job_it;
      }
    }
    removed = std::move(it->second);
    sessions_.erase(it);
  }
  JsonValue body = JsonValue::object();
  body["deleted"] = id;
  body["jobs_dropped"] = jobs_dropped;
  return json_response(200, body);
}

HttpResponse AnalysisService::handle_select(const std::string& id,
                                            const HttpRequest& request) {
  const std::shared_ptr<ServeSession> serve_session = find_session(id);
  if (serve_session == nullptr) return not_found("session");
  const JsonValue params = parse_json(request.body);
  const std::vector<std::string> names = string_list_field(params, "names");
  std::size_t found = 0;
  std::size_t selected = 0;
  {
    std::scoped_lock session_lock(serve_session->mutex);
    found = serve_session->session->select_by_names(names);
    selected = serve_session->session->selection().size();
  }
  JsonValue body = JsonValue::object();
  body["found"] = found;
  body["selection"] = selected;
  return json_response(200, body);
}

store::ArtifactKey AnalysisService::job_cache_key(
    const std::string& type, const JsonValue& params) const {
  store::KeyBuilder builder;
  builder.string("serve.job.v1")
      .value(compendium_.engine_content_key)
      .value(compendium_.spell_content_key)
      .string(type)
      .string(params.dump());
  return builder.key();
}

HttpResponse AnalysisService::handle_job_submit(const std::string& session_id,
                                                const HttpRequest& request,
                                                std::uint64_t tick) {
  const std::shared_ptr<ServeSession> serve_session = find_session(session_id);
  if (serve_session == nullptr) return not_found("session");
  const JsonValue body = parse_json(request.body);
  const std::string type = string_field(body, "type");

  // Validate and CANONICALIZE params up front: a bad request fails here,
  // synchronously, as a 400 — never as a failed job. Canonical params
  // (recognized fields only, defaults materialized) also make the cache
  // key insensitive to field order and to spelled-out defaults.
  JsonValue params = JsonValue::object();
  const sim::SimilarityEngine& engine = *compendium_.engine;
  if (type == "cluster") {
    const JsonValue* linkage_field = body.find("linkage");
    const std::string linkage_name =
        linkage_field != nullptr ? linkage_field->as_string() : "average";
    const cluster::Linkage linkage = linkage_from_name(linkage_name);
    FV_REQUIRE(!cluster::linkage_uses_squared_distances(linkage) ||
                   engine.metric() == sim::Metric::kEuclidean,
               "linkage \"" + linkage_name +
                   "\" needs squared Euclidean distances; this compendium's "
                   "engine uses a correlation metric");
    params["linkage"] = linkage_name;
    reject_unknown_fields(body, type, {"linkage"});
  } else if (type == "topk") {
    const std::size_t k = index_field_or(body, "k", 10);
    FV_REQUIRE(k >= 1, "field \"k\" must be at least 1");
    const JsonValue* strategy_field = body.find("strategy");
    const std::string strategy_name =
        strategy_field != nullptr ? strategy_field->as_string() : "auto";
    strategy_from_name(strategy_name);  // validates
    params["k"] = k;
    params["min_common"] = index_field_or(body, "min_common", 0);
    params["strategy"] = strategy_name;
    // Clamped, so every rows >= n names the one full-table result.
    params["rows"] =
        std::min(index_field_or(body, "rows", engine.size()), engine.size());
    reject_unknown_fields(body, type, {"k", "min_common", "strategy", "rows"});
  } else if (type == "spell") {
    FV_REQUIRE(compendium_.spell != nullptr,
               "this server has no SPELL banks; spell jobs are disabled");
    const std::vector<std::string> query = string_list_field(body, "query");
    FV_REQUIRE(!query.empty(), "field \"query\" must not be empty");
    JsonValue query_json = JsonValue::array();
    for (const std::string& gene : query) query_json.push(gene);
    params["query"] = std::move(query_json);
    params["limit"] = index_field_or(body, "limit", 50);
    reject_unknown_fields(body, type, {"query", "limit"});
  } else {
    throw InvalidArgument("unknown job type \"" + type +
                          "\" (expected cluster, topk or spell)");
  }

  const store::ArtifactKey key = job_cache_key(type, params);

  std::shared_ptr<JobRecord> job;
  bool submit = false;
  JobState born = JobState::kQueued;
  {
    std::scoped_lock lock(mutex_);
    reap_locked(tick);

    job = std::make_shared<JobRecord>();
    job->id = "j" + std::to_string(++job_seq_);
    job->session_id = session_id;
    job->type = type;
    job->params = params;
    job->cache_key = key;
    job->last_touch = tick;

    if (const auto hit = cache_.find(key); hit != cache_.end()) {
      // Memory cache hit: the job is born done, serving the SAME bytes the
      // cold compute produced — no admission check, no queueing.
      job->state = JobState::kDone;
      job->cached = true;
      stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
    } else if (const auto leader = in_flight_.find(key);
               leader != in_flight_.end()) {
      // Single flight: the same key is already queued or running, so this
      // job shares that job's outcome — no admission slot, no pool task,
      // no second compute. run_job settles it with its leader.
      job->state = leader->second->state;
      leader->second->followers.push_back(job);
      stats_.jobs_coalesced.fetch_add(1, std::memory_order_relaxed);
    } else {
      if (active_jobs_ >= options_.max_active_jobs) {
        stats_.jobs_rejected.fetch_add(1, std::memory_order_relaxed);
        throw OverloadedError(
            "job queue full (" + std::to_string(options_.max_active_jobs) +
            " active jobs); retry later");
      }
      ++active_jobs_;
      in_flight_[key] = job;
      submit = true;
    }
    born = job->state;
    stats_.jobs_submitted.fetch_add(1, std::memory_order_relaxed);
    jobs_[job->id] = job;
  }
  {
    std::scoped_lock session_lock(serve_session->mutex);
    serve_session->job_ids.push_back(job->id);
  }
  if (submit) {
    job_pool_.submit([this, job] { run_job(job); });
  }

  // Answer from the admission decision, not from job->state — the worker
  // may already be mutating the record.
  const bool cached = born == JobState::kDone;
  JsonValue response = JsonValue::object();
  response["job"] = job->id;
  response["state"] = job_state_name(born);
  response["cached"] = cached;
  return json_response(cached ? 200 : 202, response);
}

std::string AnalysisService::compute_job(const std::string& type,
                                         const JsonValue& params) {
  const sim::SimilarityEngine& engine = *compendium_.engine;
  JsonValue out = JsonValue::object();
  out["type"] = type;
  if (type == "cluster") {
    const cluster::Linkage linkage =
        linkage_from_name(params.find("linkage")->as_string());
    cluster::DistanceMatrix distances(engine.size());
    if (cluster::linkage_uses_squared_distances(linkage)) {
      engine.condensed_squared_distances(distances.condensed(), compute_pool_);
    } else {
      engine.condensed_distances(distances.condensed(), compute_pool_);
    }
    const std::vector<cluster::Merge> merges =
        cluster::agglomerate(std::move(distances), linkage);
    out["linkage"] = params.find("linkage")->as_string();
    out["n"] = engine.size();
    JsonValue list = JsonValue::array();
    for (const cluster::Merge& merge : merges) {
      JsonValue row = JsonValue::array();
      row.push(merge.left);
      row.push(merge.right);
      row.push(merge.distance);
      list.push(std::move(row));
    }
    out["merges"] = std::move(list);
  } else if (type == "topk") {
    const std::size_t k =
        static_cast<std::size_t>(params.find("k")->as_number());
    const std::size_t min_common =
        static_cast<std::size_t>(params.find("min_common")->as_number());
    const sim::TopKStrategy strategy =
        strategy_from_name(params.find("strategy")->as_string());
    // Canonical params already clamp rows to n; only those rows are
    // computed.
    const std::size_t rows =
        static_cast<std::size_t>(params.find("rows")->as_number());
    const sim::NeighborTable table = engine.top_k_neighbors(
        k, compute_pool_, min_common, strategy, nullptr, sim::LshParams{},
        nullptr, rows);
    out["k"] = table.k;
    out["count"] = engine.size();
    out["rows"] = rows;
    JsonValue neighbors = JsonValue::array();
    JsonValue distances = JsonValue::array();
    for (std::size_t i = 0; i < table.count; ++i) {
      JsonValue n_row = JsonValue::array();
      JsonValue d_row = JsonValue::array();
      for (std::size_t j = 0; j < table.neighbor_count(i); ++j) {
        n_row.push(static_cast<std::size_t>(table.neighbors(i)[j]));
        d_row.push(static_cast<double>(table.neighbor_distances(i)[j]));
      }
      neighbors.push(std::move(n_row));
      distances.push(std::move(d_row));
    }
    out["neighbors"] = std::move(neighbors);
    out["distances"] = std::move(distances);
  } else if (type == "spell") {
    FV_REQUIRE(compendium_.spell != nullptr, "spell jobs are disabled");
    std::vector<std::string> query;
    for (const JsonValue& gene : params.find("query")->items()) {
      query.push_back(gene.as_string());
    }
    const std::size_t limit =
        static_cast<std::size_t>(params.find("limit")->as_number());
    const spell::SpellResult result =
        compendium_.spell->search(query, spell::SpellOptions{}, compute_pool_);
    out["recognized"] = result.query_genes_recognized;
    JsonValue datasets = JsonValue::array();
    for (const spell::DatasetScore& score : result.dataset_ranking) {
      JsonValue row = JsonValue::array();
      row.push(score.dataset_index);
      row.push(score.weight);
      row.push(score.query_genes_found);
      datasets.push(std::move(row));
    }
    out["datasets"] = std::move(datasets);
    JsonValue genes = JsonValue::array();
    const std::size_t gene_count = std::min(limit, result.gene_ranking.size());
    for (std::size_t i = 0; i < gene_count; ++i) {
      const spell::GeneScore& score = result.gene_ranking[i];
      JsonValue row = JsonValue::array();
      row.push(score.gene);
      row.push(score.score);
      row.push(score.support);
      genes.push(std::move(row));
    }
    out["genes"] = std::move(genes);
  } else {
    throw LogicError("compute_job on unvalidated type \"" + type + "\"");
  }
  return out.dump();
}

std::shared_ptr<const std::string> AnalysisService::produce_result(
    const JobRecord& job, bool& warm) {
  const auto compute = [&]() { return compute_job(job.type, job.params); };
  std::string bytes;
  warm = false;
  if (options_.store != nullptr) {
    // A restarted server serves the blob a previous process committed,
    // byte for byte. InjectedCrash flies through the ladder to the caller:
    // a death mid-commit fails the request and leaves fsck the store.
    store::OpenStats open_stats;
    bytes = store::open_or_compute_blob(*options_.store, job.cache_key,
                                        compute, &open_stats);
    warm = open_stats.warm;
  } else {
    bytes = compute();
  }
  (warm ? stats_.cache_hits : stats_.computes)
      .fetch_add(1, std::memory_order_relaxed);
  return std::make_shared<const std::string>(std::move(bytes));
}

void AnalysisService::cache_insert_locked(
    store::ArtifactKey key, std::shared_ptr<const std::string> result) {
  if (cache_.emplace(key, std::move(result)).second) {
    cache_order_.push_back(key);
    while (cache_.size() > options_.result_cache_entries) {
      cache_.erase(cache_order_.front());
      cache_order_.erase(cache_order_.begin());
    }
  }
}

void AnalysisService::run_job(std::shared_ptr<JobRecord> job) {
  {
    std::scoped_lock lock(mutex_);
    job->state = JobState::kRunning;
    for (const auto& follower : job->followers) {
      follower->state = JobState::kRunning;
    }
  }
  job_cv_.notify_all();

  std::shared_ptr<const std::string> result;
  std::string error;
  int error_status = 500;
  bool was_cached = false;
  try {
    result = produce_result(*job, was_cached);
  } catch (const Error& e) {
    error = e.what();
    error_status = error_http_status(e);
  } catch (const InjectedCrash& crash) {
    // Simulated process death mid-persist (deliberately not an fv::Error,
    // and not even a std::exception — it must be caught by name): the job
    // fails, the service carries on, and the store is left exactly as the
    // "dead process" left it — fsck's problem, as the chaos suite proves.
    // The computed result is dropped: a process that died mid-commit never
    // answered its client either.
    error = "store crashed at op " + std::to_string(crash.op) +
            " persisting the result";
    error_status = 500;
  } catch (const std::exception& e) {
    error = e.what();
    error_status = 500;
  }

  {
    // One lock settles the leader, its followers and the in-flight entry:
    // a later submit of this key sees either the cached bytes or a fresh
    // leader, never a finished one.
    std::scoped_lock lock(mutex_);
    const auto settle = [&](JobRecord& record) {
      if (result != nullptr) {
        record.state = JobState::kDone;
        record.cached = was_cached;
      } else {
        record.state = JobState::kFailed;
        record.error = error;
        record.error_status = error_status;
        stats_.jobs_failed.fetch_add(1, std::memory_order_relaxed);
      }
    };
    settle(*job);
    for (const auto& follower : job->followers) settle(*follower);
    job->followers.clear();
    in_flight_.erase(job->cache_key);
    if (result != nullptr) {
      cache_insert_locked(job->cache_key, std::move(result));
    }
    --active_jobs_;
  }
  job_cv_.notify_all();
}

HttpResponse AnalysisService::handle_job_status(const std::string& session_id,
                                                const std::string& job_id,
                                                const HttpRequest& request,
                                                std::uint64_t tick) {
  std::uint32_t wait_ms = 0;
  if (const auto it = request.query.find("wait_ms");
      it != request.query.end()) {
    char* end = nullptr;
    const unsigned long long value = std::strtoull(it->second.c_str(), &end, 10);
    FV_REQUIRE(end != it->second.c_str() && *end == '\0' && value <= 60'000,
               "wait_ms must be an integer between 0 and 60000");
    wait_ms = static_cast<std::uint32_t>(value);
  }

  std::unique_lock lock(mutex_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end() || it->second->session_id != session_id) {
    return not_found("job");
  }
  const std::shared_ptr<JobRecord> job = it->second;
  job->last_touch = tick;
  if (wait_ms > 0) {
    // Bounded long-poll: waits for a terminal state, never indefinitely.
    // Expiry is NOT an error — the current state is the answer.
    job_cv_.wait_for(lock, std::chrono::milliseconds(wait_ms), [&] {
      return job->state == JobState::kDone || job->state == JobState::kFailed;
    });
  }
  JsonValue body = JsonValue::object();
  body["job"] = job->id;
  body["session"] = job->session_id;
  body["jobtype"] = job->type;
  body["params"] = job->params;
  body["state"] = job_state_name(job->state);
  body["cached"] = job->cached;
  if (job->state == JobState::kFailed) {
    body["error"] = job->error;
    body["error_status"] = job->error_status;
  }
  return json_response(200, body);
}

HttpResponse AnalysisService::handle_job_result(const std::string& session_id,
                                                const std::string& job_id,
                                                std::uint64_t tick) {
  std::shared_ptr<JobRecord> job;
  std::shared_ptr<const std::string> result;
  {
    std::scoped_lock lock(mutex_);
    const auto it = jobs_.find(job_id);
    if (it == jobs_.end() || it->second->session_id != session_id) {
      return not_found("job");
    }
    job = it->second;
    job->last_touch = tick;
    switch (job->state) {
      case JobState::kDone:
        break;
      case JobState::kFailed:
        return error_response(job->error_status, job->error);
      case JobState::kQueued:
      case JobState::kRunning:
        return error_response(409, "job not finished");
    }
    if (const auto hit = cache_.find(job->cache_key); hit != cache_.end()) {
      result = hit->second;
    }
  }
  if (result == nullptr) {
    // Evicted from the bounded cache. The key names the bytes, so the
    // store (or a recompute) hands back exactly what the job produced.
    // A finished job's type, params and key never change, so no lock.
    try {
      bool warm = false;
      result = produce_result(*job, warm);
    } catch (const InjectedCrash& crash) {
      return error_response(500, "store crashed at op " +
                                     std::to_string(crash.op) +
                                     " reloading the result");
    }
    std::scoped_lock lock(mutex_);
    cache_insert_locked(job->cache_key, result);
  }
  // The response body IS the cached byte string — result fetches are
  // bit-identical across cold, concurrent, cached and evicted serves. The
  // copy happens outside the service lock.
  HttpResponse response;
  response.body = *result;
  return response;
}

HttpResponse AnalysisService::handle_stats() const {
  JsonValue body = JsonValue::object();
  {
    std::scoped_lock lock(mutex_);
    body["sessions"] = sessions_.size();
    body["jobs"] = jobs_.size();
    body["active_jobs"] = active_jobs_;
    body["cache_entries"] = cache_.size();
  }
  body["requests"] = stats_.requests.load(std::memory_order_relaxed);
  body["jobs_submitted"] = stats_.jobs_submitted.load(std::memory_order_relaxed);
  body["jobs_rejected"] = stats_.jobs_rejected.load(std::memory_order_relaxed);
  body["computes"] = stats_.computes.load(std::memory_order_relaxed);
  body["cache_hits"] = stats_.cache_hits.load(std::memory_order_relaxed);
  body["jobs_coalesced"] =
      stats_.jobs_coalesced.load(std::memory_order_relaxed);
  body["jobs_failed"] = stats_.jobs_failed.load(std::memory_order_relaxed);
  body["jobs_reaped"] = stats_.jobs_reaped.load(std::memory_order_relaxed);
  body["injected_rejects"] =
      stats_.injected_rejects.load(std::memory_order_relaxed);
  body["injected_delays"] =
      stats_.injected_delays.load(std::memory_order_relaxed);
  body["engine_profiles"] = compendium_.engine->size();
  return json_response(200, body);
}

void AnalysisService::wait_job(const std::string& job_id,
                               std::chrono::milliseconds deadline) {
  std::unique_lock lock(mutex_);
  const auto it = jobs_.find(job_id);
  FV_REQUIRE(it != jobs_.end(), "no such job \"" + job_id + "\"");
  const std::shared_ptr<JobRecord> job = it->second;
  const bool done = job_cv_.wait_for(lock, deadline, [&] {
    return job->state == JobState::kDone || job->state == JobState::kFailed;
  });
  if (!done) {
    throw TimeoutError("job \"" + job_id + "\" still " +
                       job_state_name(job->state) + " after bounded wait");
  }
}

std::size_t AnalysisService::reap_locked(std::uint64_t now) {
  if (options_.job_ttl_requests == 0) return 0;
  std::size_t reaped = 0;
  for (auto it = jobs_.begin(); it != jobs_.end();) {
    const JobRecord& job = *it->second;
    if (job.last_touch + options_.job_ttl_requests < now) {
      // Client abandoned it: no poll or fetch for TTL logical ticks. A
      // still-running body finishes on its own shared_ptr and is dropped.
      const std::string job_id = it->first;
      const std::string session_id = job.session_id;
      it = jobs_.erase(it);
      ++reaped;
      if (const auto session_it = sessions_.find(session_id);
          session_it != sessions_.end()) {
        std::scoped_lock session_lock(session_it->second->mutex);
        auto& ids = session_it->second->job_ids;
        ids.erase(std::remove(ids.begin(), ids.end(), job_id), ids.end());
      }
    } else {
      ++it;
    }
  }
  stats_.jobs_reaped.fetch_add(reaped, std::memory_order_relaxed);
  return reaped;
}

std::size_t AnalysisService::reap_abandoned() {
  std::scoped_lock lock(mutex_);
  return reap_locked(request_tick_.load(std::memory_order_relaxed));
}

std::size_t AnalysisService::session_count() const {
  std::scoped_lock lock(mutex_);
  return sessions_.size();
}

std::size_t AnalysisService::active_jobs() const {
  std::scoped_lock lock(mutex_);
  return active_jobs_;
}

std::shared_ptr<AnalysisService::ServeSession> AnalysisService::find_session(
    const std::string& id) const {
  std::scoped_lock lock(mutex_);
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

std::shared_ptr<AnalysisService::JobRecord> AnalysisService::find_job(
    const std::string& session_id, const std::string& job_id) const {
  std::scoped_lock lock(mutex_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end() || it->second->session_id != session_id) return nullptr;
  return it->second;
}

}  // namespace fv::serve
