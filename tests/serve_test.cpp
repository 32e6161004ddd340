// Endpoint contract suite for the serving layer (src/serve).
//
// Drives AnalysisService::handle directly (request-in/response-out — the
// HTTP socket layer is exercised separately at the end) and pins the
// contracts the clients and the chaos/bench layers rely on:
//   * session CRUD with a bounded session table,
//   * the async job lifecycle (submit 202 → poll → fetch),
//   * typed fv::Error → HTTP status mapping, malformed JSON → 400,
//   * cache-hit bit-identity, proven by the compute counter, and one
//     compute per key while it is in flight (single flight),
//   * strict job params: unrecognized fields → 400, rows clamped to n,
//     and a pinned top-k response hash,
//   * deterministic request-path fault injection,
//   * client-abandoned job reaping on the logical request clock,
//   * the persistent blob cache across service restarts, and results
//     evicted from the bounded memory cache served bit-identically,
//   * the socket listener: concurrent connections, read and write
//     deadlines, 408/413, and a stop() that a non-reading peer can't hang.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/distance.hpp"
#include "cluster/hclust.hpp"
#include "expr/synth.hpp"
#include "serve/http.hpp"
#include "serve/json.hpp"
#include "serve/service.hpp"
#include "store/artifact_store.hpp"
#include "store/fault.hpp"
#include "store/fsck.hpp"
#include "util/rng.hpp"

namespace {

namespace fs = std::filesystem;
using fv::serve::AnalysisService;
using fv::serve::HttpRequest;
using fv::serve::HttpResponse;
using fv::serve::JsonValue;

/// One small synthetic compendium + engine + SPELL banks, built once and
/// shared by every test (construction dominates test runtime otherwise).
struct Fixture {
  std::shared_ptr<const std::vector<fv::expr::Dataset>> datasets;
  fv::serve::SharedCompendium compendium;
  fv::par::ThreadPool compute_pool{2};

  Fixture() {
    fv::expr::CompendiumSpec spec;
    spec.genome = fv::expr::GenomeSpec::yeast_like(120);
    spec.seed = 7;
    auto owned = std::make_shared<std::vector<fv::expr::Dataset>>(
        fv::expr::make_compendium(spec).datasets);
    datasets = owned;
    auto engine = std::make_shared<fv::sim::SimilarityEngine>(
        fv::sim::SimilarityEngine::from_rows((*datasets)[0].values(),
                                             fv::sim::Metric::kPearson));
    auto spell = std::make_shared<fv::spell::SpellSearch>(*datasets,
                                                          compute_pool);
    compendium = fv::serve::make_shared_compendium(engine, datasets, spell);
  }
};

Fixture& fixture() {
  static Fixture* f = new Fixture;
  return *f;
}

HttpRequest make_request(const std::string& method, const std::string& path,
                         const std::string& body = "") {
  HttpRequest request;
  request.method = method;
  request.path = path;
  request.body = body;
  return request;
}

/// Extracts a top-level string field from a JSON response body.
std::string field(const HttpResponse& response, const std::string& key) {
  const JsonValue body = fv::serve::parse_json(response.body);
  const JsonValue* value = body.find(key);
  if (value == nullptr) return "";
  if (value->type() == JsonValue::Type::kString) return value->as_string();
  return fv::serve::format_json_number(value->as_number());
}

std::string create_session(AnalysisService& service) {
  const HttpResponse response =
      service.handle(make_request("POST", "/sessions"));
  EXPECT_EQ(response.status, 201);
  return field(response, "session");
}

/// Submits a job and runs it to completion; returns the result bytes.
std::string run_to_result(AnalysisService& service, const std::string& sid,
                          const std::string& job_body) {
  const HttpResponse submit =
      service.handle(make_request("POST", "/sessions/" + sid + "/jobs",
                                  job_body));
  EXPECT_TRUE(submit.status == 202 || submit.status == 200) << submit.body;
  const std::string job = field(submit, "job");
  service.wait_job(job, std::chrono::seconds(60));
  const HttpResponse result = service.handle(
      make_request("GET", "/sessions/" + sid + "/jobs/" + job + "/result"));
  EXPECT_EQ(result.status, 200) << result.body;
  return result.body;
}

TEST(Serve, HealthzStatsAndUnknownEndpoints) {
  AnalysisService service(fixture().compendium, fixture().compute_pool);
  EXPECT_EQ(service.handle(make_request("GET", "/healthz")).status, 200);
  EXPECT_EQ(service.handle(make_request("GET", "/stats")).status, 200);
  EXPECT_EQ(service.handle(make_request("GET", "/no/such/path")).status, 404);
  EXPECT_EQ(service.handle(make_request("PUT", "/healthz")).status, 405);
  EXPECT_EQ(service.handle(make_request("PUT", "/sessions")).status, 405);
}

TEST(Serve, SessionCrudLifecycle) {
  AnalysisService service(fixture().compendium, fixture().compute_pool);
  const std::string sid = create_session(service);
  EXPECT_EQ(sid, "s1");

  HttpResponse list = service.handle(make_request("GET", "/sessions"));
  EXPECT_EQ(list.status, 200);
  EXPECT_EQ(field(list, "count"), "1");

  HttpResponse get = service.handle(make_request("GET", "/sessions/" + sid));
  EXPECT_EQ(get.status, 200);
  const JsonValue body = fv::serve::parse_json(get.body);
  EXPECT_EQ(body.find("id")->as_string(), sid);
  EXPECT_EQ(body.find("datasets")->as_number(),
            static_cast<double>(fixture().datasets->size()));
  EXPECT_EQ(body.find("selection")->as_number(), 0.0);

  EXPECT_EQ(service.handle(make_request("DELETE", "/sessions/" + sid)).status,
            200);
  EXPECT_EQ(service.handle(make_request("GET", "/sessions/" + sid)).status,
            404);
  EXPECT_EQ(service.handle(make_request("DELETE", "/sessions/" + sid)).status,
            404);
  EXPECT_EQ(service.session_count(), 0u);
}

TEST(Serve, SessionTableIsBounded) {
  AnalysisService::Options options;
  options.max_sessions = 2;
  AnalysisService service(fixture().compendium, fixture().compute_pool,
                          options);
  create_session(service);
  create_session(service);
  const HttpResponse third = service.handle(make_request("POST", "/sessions"));
  EXPECT_EQ(third.status, 503);
  EXPECT_NE(third.body.find("session table full"), std::string::npos);
}

TEST(Serve, SelectByNamesMutatesOnlyThatSession) {
  AnalysisService service(fixture().compendium, fixture().compute_pool);
  const std::string a = create_session(service);
  const std::string b = create_session(service);
  const std::string gene = (*fixture().datasets)[0].gene(0).systematic_name;
  const HttpResponse select = service.handle(make_request(
      "POST", "/sessions/" + a + "/select", "{\"names\":[\"" + gene + "\"]}"));
  EXPECT_EQ(select.status, 200);
  EXPECT_EQ(field(select, "found"), "1");

  EXPECT_EQ(field(service.handle(make_request("GET", "/sessions/" + a)),
                  "selection"),
            "1");
  EXPECT_EQ(field(service.handle(make_request("GET", "/sessions/" + b)),
                  "selection"),
            "0");
}

TEST(Serve, MalformedAndInvalidRequestsAre400) {
  AnalysisService service(fixture().compendium, fixture().compute_pool);
  const std::string sid = create_session(service);
  const std::string jobs = "/sessions/" + sid + "/jobs";
  // Malformed JSON body.
  EXPECT_EQ(service.handle(make_request("POST", jobs, "{bad")).status, 400);
  // Missing type.
  EXPECT_EQ(service.handle(make_request("POST", jobs, "{}")).status, 400);
  // Unknown type.
  EXPECT_EQ(
      service.handle(make_request("POST", jobs, "{\"type\":\"nope\"}")).status,
      400);
  // Ward linkage needs squared Euclidean input; this engine is Pearson.
  EXPECT_EQ(service
                .handle(make_request(
                    "POST", jobs,
                    "{\"type\":\"cluster\",\"linkage\":\"ward\"}"))
                .status,
            400);
  // k = 0 is meaningless.
  EXPECT_EQ(
      service.handle(make_request("POST", jobs, "{\"type\":\"topk\",\"k\":0}"))
          .status,
      400);
  // Empty SPELL query.
  EXPECT_EQ(service
                .handle(make_request("POST", jobs,
                                     "{\"type\":\"spell\",\"query\":[]}"))
                .status,
            400);
  // No job was admitted by any of these.
  EXPECT_EQ(service.stats().jobs_submitted.load(), 0u);
}

TEST(Serve, ErrorStatusMapping) {
  using fv::serve::error_http_status;
  EXPECT_EQ(error_http_status(fv::InvalidArgument("x")), 400);
  EXPECT_EQ(error_http_status(fv::ParseError("x")), 400);
  EXPECT_EQ(error_http_status(fv::OverloadedError("x")), 503);
  EXPECT_EQ(error_http_status(fv::TimeoutError("x")), 504);
  EXPECT_EQ(error_http_status(fv::CorruptArtifactError("x")), 502);
  EXPECT_EQ(error_http_status(fv::CorruptMessageError("x")), 502);
  EXPECT_EQ(error_http_status(fv::StaleArtifactError("x")), 502);
  EXPECT_EQ(error_http_status(fv::IoError("x")), 500);
  EXPECT_EQ(error_http_status(fv::LogicError("x")), 500);
  EXPECT_EQ(error_http_status(fv::Error("x")), 500);
}

TEST(Serve, JobLifecycleSubmitPollFetch) {
  AnalysisService service(fixture().compendium, fixture().compute_pool);
  const std::string sid = create_session(service);
  const HttpResponse submit = service.handle(make_request(
      "POST", "/sessions/" + sid + "/jobs", "{\"type\":\"topk\",\"k\":3}"));
  EXPECT_EQ(submit.status, 202);
  const std::string job = field(submit, "job");
  EXPECT_EQ(job, "j1");
  EXPECT_EQ(field(submit, "state"), "queued");

  // Result before completion is 409 or (if the tiny job already finished)
  // 200 — never a dropped request. Poll with a bounded long-poll wait.
  // (query is a separate HttpRequest field; the socket parser splits it.)
  HttpRequest poll = make_request("GET", "/sessions/" + sid + "/jobs/" + job);
  poll.query["wait_ms"] = "30000";
  const HttpResponse status = service.handle(poll);
  EXPECT_EQ(status.status, 200);
  EXPECT_EQ(field(status, "state"), "done");

  const HttpResponse result = service.handle(
      make_request("GET", "/sessions/" + sid + "/jobs/" + job + "/result"));
  EXPECT_EQ(result.status, 200);
  const JsonValue body = fv::serve::parse_json(result.body);
  EXPECT_EQ(body.find("type")->as_string(), "topk");
  EXPECT_EQ(body.find("k")->as_number(), 3.0);

  // Unknown job / wrong session are 404.
  EXPECT_EQ(service
                .handle(make_request("GET",
                                     "/sessions/" + sid + "/jobs/j999"))
                .status,
            404);
  EXPECT_EQ(
      service.handle(make_request("GET", "/sessions/s999/jobs/" + job)).status,
      404);
}

TEST(Serve, CacheHitServesIdenticalBytesWithoutRecompute) {
  AnalysisService service(fixture().compendium, fixture().compute_pool);
  const std::string sid = create_session(service);
  const std::string gene = (*fixture().datasets)[0].gene(0).systematic_name;
  const std::string params = "{\"type\":\"spell\",\"query\":[\"" + gene + "\"]}";

  const std::string first = run_to_result(service, sid, params);
  EXPECT_EQ(service.stats().computes.load(), 1u);
  EXPECT_EQ(service.stats().cache_hits.load(), 0u);

  // Same params again — even spelled differently (defaults explicit,
  // fields reordered) — must be served from the cache: born done, zero
  // extra computes, and the response bytes BIT-IDENTICAL to the cold ones.
  const HttpResponse submit = service.handle(make_request(
      "POST", "/sessions/" + sid + "/jobs",
      "{\"limit\":50,\"query\":[\"" + gene + "\"],\"type\":\"spell\"}"));
  EXPECT_EQ(submit.status, 200);
  const JsonValue submit_body = fv::serve::parse_json(submit.body);
  EXPECT_TRUE(submit_body.find("cached")->as_bool());
  EXPECT_EQ(submit_body.find("state")->as_string(), "done");

  const std::string job = submit_body.find("job")->as_string();
  const HttpResponse result = service.handle(
      make_request("GET", "/sessions/" + sid + "/jobs/" + job + "/result"));
  EXPECT_EQ(result.body, first);
  EXPECT_EQ(service.stats().computes.load(), 1u);
  EXPECT_EQ(service.stats().cache_hits.load(), 1u);

  // Different params are a different cache entry.
  run_to_result(service, sid,
                "{\"type\":\"spell\",\"query\":[\"" + gene +
                    "\"],\"limit\":5}");
  EXPECT_EQ(service.stats().computes.load(), 2u);
}

TEST(Serve, ClusterJobMatchesDirectComputation) {
  AnalysisService service(fixture().compendium, fixture().compute_pool);
  const std::string sid = create_session(service);
  const std::string body = run_to_result(
      service, sid, "{\"type\":\"cluster\",\"linkage\":\"average\"}");
  const JsonValue parsed = fv::serve::parse_json(body);
  const std::size_t n = fixture().compendium.engine->size();
  EXPECT_EQ(parsed.find("n")->as_number(), static_cast<double>(n));
  ASSERT_EQ(parsed.find("merges")->items().size(), n - 1);

  // The served merges are exactly agglomerate() over the engine distances.
  fv::cluster::DistanceMatrix distances(n);
  fixture().compendium.engine->condensed_distances(distances.condensed(),
                                                   fixture().compute_pool);
  const std::vector<fv::cluster::Merge> merges = fv::cluster::agglomerate(
      std::move(distances), fv::cluster::Linkage::kAverage);
  const auto& served = parsed.find("merges")->items();
  ASSERT_EQ(served.size(), merges.size());
  for (std::size_t i = 0; i < merges.size(); ++i) {
    EXPECT_EQ(served[i].items()[0].as_number(),
              static_cast<double>(merges[i].left));
    EXPECT_EQ(served[i].items()[1].as_number(),
              static_cast<double>(merges[i].right));
    EXPECT_EQ(served[i].items()[2].as_number(), merges[i].distance);
  }
}

TEST(Serve, QueueSaturationIsTypedRejection) {
  AnalysisService::Options options;
  options.job_workers = 1;
  options.max_active_jobs = 2;
  AnalysisService service(fixture().compendium, fixture().compute_pool,
                          options);
  const std::string sid = create_session(service);
  // Three distinct jobs: with one worker and an admission bound of 2, the
  // third submit must be refused while the first two occupy the queue.
  std::vector<std::string> jobs;
  std::size_t rejected = 0;
  for (int k = 2; k <= 4; ++k) {
    const HttpResponse submit = service.handle(make_request(
        "POST", "/sessions/" + sid + "/jobs",
        "{\"type\":\"cluster\",\"linkage\":\"" +
            std::string(k == 2 ? "average" : k == 3 ? "single" : "complete") +
            "\"}"));
    if (submit.status == 503) {
      ++rejected;
      EXPECT_NE(submit.body.find("job queue full"), std::string::npos);
    } else {
      EXPECT_EQ(submit.status, 202);
      jobs.push_back(field(submit, "job"));
    }
  }
  EXPECT_EQ(rejected, 1u);
  EXPECT_EQ(service.stats().jobs_rejected.load(), 1u);
  // The admitted jobs complete normally — saturation refused work, it
  // never corrupted the queue.
  for (const std::string& job : jobs) {
    service.wait_job(job, std::chrono::seconds(60));
  }
}

TEST(Serve, WaitJobTimesOutTyped) {
  AnalysisService service(fixture().compendium, fixture().compute_pool);
  EXPECT_THROW(service.wait_job("j999", std::chrono::milliseconds(1)),
               fv::InvalidArgument);
}

TEST(Serve, AbandonedJobsAreReaped) {
  AnalysisService::Options options;
  options.job_ttl_requests = 3;
  AnalysisService service(fixture().compendium, fixture().compute_pool,
                          options);
  const std::string sid = create_session(service);
  const HttpResponse submit = service.handle(make_request(
      "POST", "/sessions/" + sid + "/jobs", "{\"type\":\"topk\",\"k\":2}"));
  const std::string job = field(submit, "job");
  service.wait_job(job, std::chrono::seconds(60));

  // The client walks away: 4 requests that never touch the job.
  for (int i = 0; i < 4; ++i) {
    service.handle(make_request("GET", "/healthz"));
  }
  EXPECT_GE(service.reap_abandoned(), 1u);
  EXPECT_EQ(service
                .handle(make_request("GET",
                                     "/sessions/" + sid + "/jobs/" + job))
                .status,
            404);
  // The session itself is untouched, and its job list no longer lists it.
  const HttpResponse get = service.handle(make_request("GET", "/sessions/" + sid));
  EXPECT_EQ(get.status, 200);
  EXPECT_EQ(fv::serve::parse_json(get.body).find("jobs")->items().size(), 0u);
}

TEST(Serve, FaultInjectionIsDeterministic) {
  AnalysisService::Options options;
  options.faults.seed = 99;
  options.faults.reject_rate = 0.3;

  const auto run = [&options]() {
    AnalysisService service(fixture().compendium, fixture().compute_pool,
                            options);
    std::vector<int> statuses;
    for (int i = 0; i < 40; ++i) {
      const HttpResponse response =
          service.handle(make_request("GET", "/healthz"));
      statuses.push_back(response.status);
      if (response.status == 503) {
        EXPECT_NE(response.body.find("\"injected\":true"), std::string::npos);
      }
    }
    EXPECT_GT(service.stats().injected_rejects.load(), 0u);
    return statuses;
  };

  EXPECT_EQ(run(), run());  // same seed → same rejected request set
}

TEST(Serve, FaultRatesOutsideUnitIntervalAreRejected) {
  for (const double rate : {-0.1, 1.5}) {
    AnalysisService::Options reject;
    reject.faults.reject_rate = rate;
    EXPECT_THROW(AnalysisService(fixture().compendium,
                                 fixture().compute_pool, reject),
                 fv::InvalidArgument)
        << "reject_rate " << rate;
    AnalysisService::Options delay;
    delay.faults.delay_rate = rate;
    EXPECT_THROW(AnalysisService(fixture().compendium,
                                 fixture().compute_pool, delay),
                 fv::InvalidArgument)
        << "delay_rate " << rate;
  }
}

TEST(Serve, PersistentBlobCacheSurvivesRestart) {
  const std::string dir =
      (fs::temp_directory_path() /
       ("fv_serve_blob_test." + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string params = "{\"type\":\"topk\",\"k\":4,\"rows\":8}";

  std::string cold;
  {
    fv::store::ArtifactStore store(dir);
    AnalysisService::Options options;
    options.store = &store;
    AnalysisService service(fixture().compendium, fixture().compute_pool,
                            options);
    const std::string sid = create_session(service);
    cold = run_to_result(service, sid, params);
    EXPECT_EQ(service.stats().computes.load(), 1u);
  }
  {
    // A "restarted server": fresh service, same store, empty memory cache.
    fv::store::ArtifactStore store(dir);
    AnalysisService::Options options;
    options.store = &store;
    AnalysisService service(fixture().compendium, fixture().compute_pool,
                            options);
    const std::string sid = create_session(service);
    const std::string warm = run_to_result(service, sid, params);
    EXPECT_EQ(warm, cold);  // bit-identical across processes
    EXPECT_EQ(service.stats().computes.load(), 0u);
    EXPECT_EQ(service.stats().cache_hits.load(), 1u);
  }
  EXPECT_TRUE(fv::store::fsck_scan(dir).clean());
  fs::remove_all(dir);
}

TEST(Serve, EvictedResultIsServedBitIdentical) {
  // A one-entry cache evicts job 1's bytes by the time job 3 finishes; the
  // job record keeps only the key, so the fetch reloads from the store
  // (no compute) or, storeless, recomputes — the same bytes either way.
  const std::vector<std::string> bodies = {
      "{\"type\":\"topk\",\"k\":3,\"rows\":8}",
      "{\"type\":\"topk\",\"k\":4,\"rows\":8}",
      "{\"type\":\"topk\",\"k\":5,\"rows\":8}"};
  std::string cold;
  {
    AnalysisService reference(fixture().compendium, fixture().compute_pool);
    cold = run_to_result(reference, create_session(reference), bodies[0]);
  }
  const std::string dir =
      (fs::temp_directory_path() /
       ("fv_serve_evict_test." + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);
  for (const bool with_store : {true, false}) {
    SCOPED_TRACE(with_store ? "with store" : "storeless");
    fv::store::ArtifactStore store(dir);
    AnalysisService::Options options;
    options.result_cache_entries = 1;
    options.store = with_store ? &store : nullptr;
    AnalysisService service(fixture().compendium, fixture().compute_pool,
                            options);
    const std::string sid = create_session(service);
    for (const std::string& body : bodies) run_to_result(service, sid, body);
    EXPECT_EQ(service.stats().computes.load(), 3u);

    const HttpResponse result = service.handle(
        make_request("GET", "/sessions/" + sid + "/jobs/j1/result"));
    EXPECT_EQ(result.status, 200);
    EXPECT_EQ(result.body, cold);
    EXPECT_EQ(service.stats().computes.load(), with_store ? 3u : 4u);
    fs::remove_all(dir);
  }
}

TEST(Serve, TopKResponseBytesArePinned) {
  // Balanced ±1 profiles: every normalized value is ±1/4 and every dot
  // product a multiple of 1/16, so each distance is exact whether or not
  // the build contracts multiply-adds, and the pinned bytes do not depend
  // on the target CPU. The many tied distances exercise the index
  // tie-break. The hash is the response of the full-table implementation;
  // rows 100 of 130 profiles is a true prefix (2 of 3 row blocks).
  constexpr std::size_t kProfiles = 130;
  constexpr std::size_t kLength = 16;
  fv::Rng rng(2024);
  std::vector<float> flat(kProfiles * kLength, -1.0f);
  for (std::size_t r = 0; r < kProfiles; ++r) {
    for (const std::size_t c :
         rng.sample_without_replacement(kLength, kLength / 2)) {
      flat[r * kLength + c] = 1.0f;
    }
  }
  auto engine = std::make_shared<fv::sim::SimilarityEngine>(
      fv::sim::SimilarityEngine::from_profiles(flat, kProfiles, kLength,
                                               fv::sim::Metric::kPearson));
  AnalysisService service(
      fv::serve::make_shared_compendium(engine, fixture().datasets),
      fixture().compute_pool);
  const std::string body = run_to_result(
      service, create_session(service),
      "{\"type\":\"topk\",\"k\":7,\"rows\":100,\"strategy\":\"pruned\"}");
  EXPECT_EQ(fv::store::KeyBuilder().string(body).key(),
            0x0b27f629f7b21160ULL);
  const JsonValue parsed = fv::serve::parse_json(body);
  EXPECT_EQ(parsed.find("count")->as_number(), 130.0);
  EXPECT_EQ(parsed.find("neighbors")->items().size(), 100u);
}

TEST(Serve, UnrecognizedJobFieldsAre400AndCreateNoJob) {
  AnalysisService service(fixture().compendium, fixture().compute_pool);
  const std::string sid = create_session(service);
  const std::string jobs = "/sessions/" + sid + "/jobs";
  for (const std::string body :
       {"{\"type\":\"topk\",\"k\":3,\"bogus\":1}",
        "{\"type\":\"cluster\",\"linkage\":\"average\",\"k\":3}",
        "{\"type\":\"spell\",\"query\":[\"x\"],\"rows\":4}"}) {
    SCOPED_TRACE(body);
    const HttpResponse response =
        service.handle(make_request("POST", jobs, body));
    EXPECT_EQ(response.status, 400);
    EXPECT_NE(response.body.find("unrecognized field"), std::string::npos)
        << response.body;
  }
  EXPECT_EQ(service.stats().jobs_submitted.load(), 0u);
  EXPECT_EQ(field(service.handle(make_request("GET", "/stats")), "jobs"), "0");
  const HttpResponse session =
      service.handle(make_request("GET", "/sessions/" + sid));
  EXPECT_EQ(fv::serve::parse_json(session.body).find("jobs")->items().size(),
            0u);
}

TEST(Serve, RowsPastProfileCountShareTheFullTableKey) {
  // rows is clamped to the profile count in the canonical params, so any
  // rows >= n names the default request's result.
  AnalysisService service(fixture().compendium, fixture().compute_pool);
  const std::string sid = create_session(service);
  const std::string full =
      run_to_result(service, sid, "{\"type\":\"topk\",\"k\":3}");
  const HttpResponse submit = service.handle(
      make_request("POST", "/sessions/" + sid + "/jobs",
                   "{\"type\":\"topk\",\"k\":3,\"rows\":99999}"));
  EXPECT_EQ(submit.status, 200);
  EXPECT_TRUE(fv::serve::parse_json(submit.body).find("cached")->as_bool());
  const HttpResponse result = service.handle(make_request(
      "GET", "/sessions/" + sid + "/jobs/" + field(submit, "job") + "/result"));
  EXPECT_EQ(result.body, full);
  EXPECT_EQ(service.stats().computes.load(), 1u);
}

/// Holds a 1-thread compute pool's only worker until release() (or
/// destruction), so a job submitted meanwhile stays in flight, blocked on
/// its first compute phase. Declare it after the service: it must release
/// before the service drains its jobs.
class PoolBlocker {
 public:
  explicit PoolBlocker(fv::par::ThreadPool& pool) {
    pool.submit([gate = gate_.get_future().share()] { gate.wait(); });
  }
  ~PoolBlocker() { release(); }
  void release() {
    if (!released_) gate_.set_value();
    released_ = true;
  }

 private:
  std::promise<void> gate_;
  bool released_ = false;
};

/// Submits `body` once from each of `sessions` fresh sessions; returns the
/// (session, job) ids.
std::vector<std::pair<std::string, std::string>> submit_from_sessions(
    AnalysisService& service, const std::string& body, int sessions) {
  std::vector<std::pair<std::string, std::string>> jobs;
  for (int s = 0; s < sessions; ++s) {
    const std::string sid = create_session(service);
    const HttpResponse submit = service.handle(
        make_request("POST", "/sessions/" + sid + "/jobs", body));
    EXPECT_EQ(submit.status, 202) << submit.body;
    EXPECT_FALSE(fv::serve::parse_json(submit.body).find("cached")->as_bool());
    jobs.emplace_back(sid, field(submit, "job"));
  }
  return jobs;
}

TEST(Serve, SameKeyInFlightComputesOnce) {
  fv::par::ThreadPool compute_pool(1);
  AnalysisService service(fixture().compendium, compute_pool);
  PoolBlocker blocker(compute_pool);
  const auto jobs = submit_from_sessions(
      service, "{\"type\":\"topk\",\"k\":5,\"rows\":40}", 3);
  // One leader holds the only admission slot; the other two attached.
  EXPECT_EQ(service.active_jobs(), 1u);
  EXPECT_EQ(service.stats().jobs_coalesced.load(), 2u);
  blocker.release();

  std::vector<std::string> bodies;
  for (const auto& [sid, job] : jobs) {
    service.wait_job(job, std::chrono::seconds(60));
    const HttpResponse result = service.handle(
        make_request("GET", "/sessions/" + sid + "/jobs/" + job + "/result"));
    EXPECT_EQ(result.status, 200);
    bodies.push_back(result.body);
  }
  EXPECT_EQ(service.stats().computes.load(), 1u);
  EXPECT_EQ(bodies[1], bodies[0]);
  EXPECT_EQ(bodies[2], bodies[0]);
  EXPECT_EQ(service.active_jobs(), 0u);
  EXPECT_EQ(field(service.handle(make_request("GET", "/stats")),
                  "jobs_coalesced"),
            "2");
}

TEST(Serve, FailedLeaderFailsItsFollowers) {
  const std::string dir =
      (fs::temp_directory_path() /
       ("fv_serve_coalesce_test." + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);
  {
    // crash_at_op = 3 lands inside the leader's result persist.
    fv::store::FaultSpec faults;
    faults.crash_at_op = 3;
    fv::store::ArtifactStore store(dir, faults);
    AnalysisService::Options options;
    options.store = &store;
    fv::par::ThreadPool compute_pool(1);
    AnalysisService service(fixture().compendium, compute_pool, options);
    PoolBlocker blocker(compute_pool);
    const auto jobs = submit_from_sessions(
        service, "{\"type\":\"topk\",\"k\":4,\"rows\":20}", 3);
    EXPECT_EQ(service.stats().jobs_coalesced.load(), 2u);
    blocker.release();

    std::vector<std::string> results;
    for (const auto& [sid, job] : jobs) {
      service.wait_job(job, std::chrono::seconds(60));
      const HttpResponse status = service.handle(
          make_request("GET", "/sessions/" + sid + "/jobs/" + job));
      EXPECT_EQ(field(status, "state"), "failed");
      EXPECT_EQ(field(status, "error_status"), "500");
      const HttpResponse result = service.handle(make_request(
          "GET", "/sessions/" + sid + "/jobs/" + job + "/result"));
      EXPECT_EQ(result.status, 500);
      results.push_back(result.body);
    }
    EXPECT_NE(results[0].find("store crashed"), std::string::npos);
    EXPECT_EQ(results[1], results[0]);
    EXPECT_EQ(results[2], results[0]);
    EXPECT_EQ(service.stats().jobs_failed.load(), 3u);
    EXPECT_EQ(service.active_jobs(), 0u);
  }
  fs::remove_all(dir);
}

// Sessions are built and freed outside the service lock. Eight clients
// churning create → select → cached submit → result → delete must still
// see sequential unique ids, the expected status at every step, the
// primed result bytes, and an empty table at the end.
TEST(Serve, ConcurrentSessionChurnKeepsTheTableConsistent) {
  constexpr int kThreads = 8;
  constexpr int kCycles = 20;
  AnalysisService service(fixture().compendium, fixture().compute_pool);
  const std::string job_body = "{\"type\":\"topk\",\"k\":3,\"rows\":6}";
  const std::string primer = create_session(service);
  const std::string primed = run_to_result(service, primer, job_body);
  EXPECT_EQ(service.handle(make_request("DELETE", "/sessions/" + primer))
                .status,
            200);
  const std::string select_body =
      "{\"names\":[\"" + (*fixture().datasets)[0].gene(0).systematic_name +
      "\"]}";

  std::mutex ids_mutex;
  std::set<std::string> ids;
  std::atomic<int> completed{0};
  std::atomic<int> unexpected{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&] {
      const auto expect = [&](bool ok) {
        if (!ok) unexpected.fetch_add(1);
        return ok;
      };
      for (int c = 0; c < kCycles; ++c) {
        const HttpResponse created =
            service.handle(make_request("POST", "/sessions"));
        if (!expect(created.status == 201)) continue;
        const std::string sid = field(created, "session");
        {
          std::scoped_lock lock(ids_mutex);
          expect(ids.insert(sid).second);
        }
        const HttpResponse select = service.handle(make_request(
            "POST", "/sessions/" + sid + "/select", select_body));
        expect(select.status == 200 && field(select, "found") == "1");
        const HttpResponse submit = service.handle(
            make_request("POST", "/sessions/" + sid + "/jobs", job_body));
        expect(submit.status == 200 && field(submit, "state") == "done");
        const HttpResponse result = service.handle(make_request(
            "GET", "/sessions/" + sid + "/jobs/" + field(submit, "job") +
                       "/result"));
        expect(result.status == 200 && result.body == primed);
        const HttpResponse deleted =
            service.handle(make_request("DELETE", "/sessions/" + sid));
        expect(deleted.status == 200 && field(deleted, "jobs_dropped") == "1");
        completed.fetch_add(1);
      }
    });
  }
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(unexpected.load(), 0);
  EXPECT_EQ(completed.load(), kThreads * kCycles);
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kThreads * kCycles));
  // Ids stay sequential: the primer took s1, the clients s2 onwards.
  EXPECT_EQ(ids.count("s2"), 1u);
  EXPECT_EQ(ids.count("s" + std::to_string(kThreads * kCycles + 1)), 1u);
  EXPECT_EQ(service.session_count(), 0u);
  EXPECT_EQ(service.stats().computes.load(), 1u);
  EXPECT_EQ(service.stats().cache_hits.load(),
            static_cast<std::uint64_t>(kThreads * kCycles));
}

TEST(Serve, HttpRoundTripOverSockets) {
  AnalysisService service(fixture().compendium, fixture().compute_pool);
  fv::serve::HttpServer server(
      [&service](const HttpRequest& request) { return service.handle(request); });

  const auto exchange = [&server](const std::string& raw) {
    return fv::serve::http_exchange(server.port(), raw);
  };

  // Create a session over the wire.
  const std::string created =
      exchange("POST /sessions HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
  EXPECT_NE(created.find("HTTP/1.1 201 Created"), std::string::npos);
  EXPECT_NE(created.find("\"session\":\"s1\""), std::string::npos);

  // Submit + long-poll + fetch; the wire result equals the direct result.
  const std::string body = "{\"type\":\"topk\",\"k\":2,\"rows\":4}";
  const std::string submitted = exchange(
      "POST /sessions/s1/jobs HTTP/1.1\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\n\r\n" + body);
  EXPECT_NE(submitted.find("HTTP/1.1 202 Accepted"), std::string::npos);

  const std::string polled =
      exchange("GET /sessions/s1/jobs/j1?wait_ms=30000 HTTP/1.1\r\n\r\n");
  EXPECT_NE(polled.find("\"state\":\"done\""), std::string::npos);

  const std::string fetched =
      exchange("GET /sessions/s1/jobs/j1/result HTTP/1.1\r\n\r\n");
  const std::size_t split = fetched.find("\r\n\r\n");
  ASSERT_NE(split, std::string::npos);
  const std::string wire_body = fetched.substr(split + 4);
  const std::string direct = run_to_result(service, "s1", body);
  EXPECT_EQ(wire_body, direct);

  // Malformed request line → 400 from the HTTP layer itself.
  EXPECT_NE(exchange("NONSENSE\r\n\r\n").find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_GE(server.requests_served(), 4u);
  server.stop();
}

TEST(ServeHttp, ContentLengthInsideAHeaderValueDoesNotStallTheListener) {
  // The body length comes from the Content-Length header LINE, not from
  // wherever "content-length:" appears in the head: a header value that
  // mentions a bigger length must not make the serial listener wait for
  // body bytes that never come (stalling every other client behind it).
  fv::serve::HttpServer server([](const HttpRequest& request) {
    HttpResponse response;
    response.status = 200;
    response.body = request.body;
    return response;
  });
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  timeval timeout{};
  timeout.tv_sec = 2;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof timeout),
            0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  // The write side stays open: a listener that believes the bogus length
  // keeps waiting instead of seeing EOF, and the client's 2 s receive
  // timeout turns that stall into a failure rather than a hang.
  const std::string raw =
      "POST /echo HTTP/1.1\r\n"
      "X-Note: content-length: 4096\r\n"
      "Content-Length: 2\r\n"
      "\r\n"
      "{}";
  ASSERT_EQ(::send(fd, raw.data(), raw.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(raw.size()));
  std::string response;
  char chunk[4096];
  while (true) {
    const ssize_t got = ::recv(fd, chunk, sizeof chunk, 0);
    if (got <= 0) break;  // EOF after the answer, or the 2 s timeout
    response.append(chunk, static_cast<std::size_t>(got));
  }
  ::close(fd);
  const std::size_t split = response.find("\r\n\r\n");
  ASSERT_NE(split, std::string::npos) << "no response within 2 s";
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << response;
  EXPECT_EQ(response.substr(split + 4), "{}");
  server.stop();
}

/// A loopback client socket whose receives and sends give up after
/// `timeout`, so a stalled server fails a test instead of hanging it.
/// `rcvbuf` > 0 shrinks the receive buffer (and so the advertised window).
int connect_client(std::uint16_t port, std::chrono::seconds timeout,
                   int rcvbuf = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count());
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  if (rcvbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  return fd;
}

/// Everything the server sends until it closes (or the timeout expires).
std::string read_until_close(int fd) {
  std::string response;
  char chunk[4096];
  while (true) {
    const ssize_t got = ::recv(fd, chunk, sizeof chunk, 0);
    if (got <= 0) break;
    response.append(chunk, static_cast<std::size_t>(got));
  }
  return response;
}

std::string timed_exchange(std::uint16_t port, const std::string& raw,
                           std::chrono::seconds timeout) {
  const int fd = connect_client(port, timeout);
  ::send(fd, raw.data(), raw.size(), MSG_NOSIGNAL);
  std::string response = read_until_close(fd);
  ::close(fd);
  return response;
}

TEST(ServeHttp, SilentClientAndLongPollDoNotStallOthers) {
  // One client connects and sends nothing; another long-polls a handler
  // that blocks until released. Neither may hold up 8 ordinary clients,
  // and the silent one is answered 408 at the read deadline.
  std::mutex mutex;
  std::condition_variable cv;
  bool blocked = false;
  bool released = false;
  fv::serve::HttpServer server([&](const HttpRequest& request) {
    HttpResponse response;
    response.body = "{}";
    if (request.path == "/block") {
      std::unique_lock lock(mutex);
      blocked = true;
      cv.notify_all();
      cv.wait_for(lock, std::chrono::seconds(60), [&] { return released; });
      response.body = "{\"released\":true}";
    }
    return response;
  });
  const std::uint16_t port = server.port();

  const auto silent_start = std::chrono::steady_clock::now();
  const int silent = connect_client(port, std::chrono::seconds(20));
  std::string long_poll_reply;
  std::thread long_poll([&] {
    long_poll_reply = timed_exchange(port, "GET /block HTTP/1.1\r\n\r\n",
                                     std::chrono::seconds(90));
  });
  {
    std::unique_lock lock(mutex);
    EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return blocked; }))
        << "the long-poll never reached its handler";
  }

  constexpr std::size_t kClients = 8;
  constexpr std::size_t kRequests = 25;
  constexpr auto kBound = std::chrono::seconds(2);
  std::vector<std::size_t> answered(kClients, 0);
  std::vector<std::chrono::steady_clock::duration> took(kClients);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t r = 0; r < kRequests; ++r) {
        const std::string reply = timed_exchange(
            port, "GET /echo HTTP/1.1\r\n\r\n", std::chrono::seconds(10));
        if (reply.rfind("HTTP/1.1 200 OK\r\n", 0) == 0) ++answered[c];
      }
      took[c] = std::chrono::steady_clock::now() - start;
    });
  }
  for (std::thread& t : clients) t.join();
  for (std::size_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(answered[c], kRequests) << "client " << c;
    EXPECT_LT(took[c], kBound) << "client " << c;
  }

  const std::string silent_reply = read_until_close(silent);
  const auto silent_waited = std::chrono::steady_clock::now() - silent_start;
  ::close(silent);
  EXPECT_EQ(silent_reply.rfind("HTTP/1.1 408 Request Timeout\r\n", 0), 0u)
      << silent_reply;
  EXPECT_GE(silent_waited, fv::serve::HttpServer::kReadDeadline -
                               std::chrono::milliseconds(500));

  {
    std::scoped_lock lock(mutex);
    released = true;
  }
  cv.notify_all();
  long_poll.join();
  EXPECT_EQ(long_poll_reply.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_NE(long_poll_reply.find("{\"released\":true}"), std::string::npos);
  server.stop();
}

TEST(ServeHttp, StopReturnsWhileAClientRefusesToRead) {
  // A 16 MiB answer to a client with a tiny receive window that reads
  // nothing: the send stalls, the write deadline drops the connection, and
  // stop() returns instead of waiting on the peer forever.
  std::atomic<bool> handled{false};
  fv::serve::HttpServer server([&](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "text/plain";
    response.body.assign(std::size_t{16} << 20, 'x');
    handled = true;
    return response;
  });
  const int stuck =
      connect_client(server.port(), std::chrono::seconds(30), 4096);
  const std::string raw = "GET /big HTTP/1.1\r\n\r\n";
  ASSERT_EQ(::send(stuck, raw.data(), raw.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(raw.size()));
  const auto wait_start = std::chrono::steady_clock::now();
  while (!handled && std::chrono::steady_clock::now() - wait_start <
                         std::chrono::seconds(10)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(handled);

  // The stalled writer holds one connection thread, not the server.
  EXPECT_EQ(timed_exchange(server.port(), "GET /other HTTP/1.1\r\n\r\n",
                           std::chrono::seconds(10))
                .rfind("HTTP/1.1 200 OK\r\n", 0),
            0u);

  auto stopped = std::async(std::launch::async, [&] { server.stop(); });
  const bool returned =
      stopped.wait_for(fv::serve::HttpServer::kWriteDeadline +
                       std::chrono::seconds(10)) == std::future_status::ready;
  ::close(stuck);  // frees a server that ignored its write deadline
  stopped.wait();
  EXPECT_TRUE(returned) << "stop() waited on a peer that never reads";
}

TEST(ServeHttp, TruncatedRequestGetsNoAnswerAndOversizeIs413) {
  fv::serve::HttpServer::Options options;
  options.max_request_bytes = 64;
  fv::serve::HttpServer server(
      [](const HttpRequest&) { return HttpResponse{}; }, options);

  // The peer closes its side before the declared body arrives: nobody is
  // left to answer, so the server closes without a response.
  const int fd = connect_client(server.port(), std::chrono::seconds(10));
  const std::string partial =
      "POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
  ::send(fd, partial.data(), partial.size(), MSG_NOSIGNAL);
  ::shutdown(fd, SHUT_WR);
  EXPECT_EQ(read_until_close(fd), "");
  ::close(fd);

  const std::string declared_too_much = timed_exchange(
      server.port(), "POST /x HTTP/1.1\r\nContent-Length: 100\r\n\r\n",
      std::chrono::seconds(10));
  EXPECT_EQ(declared_too_much.rfind("HTTP/1.1 413 Payload Too Large\r\n", 0),
            0u)
      << declared_too_much;
  server.stop();
}

TEST(ServeJson, ParseDumpRoundTripIsCanonical) {
  const std::string canonical =
      "{\"a\":[1,2.5,true,null,\"x\"],\"b\":{\"nested\":-3}}";
  const JsonValue parsed = fv::serve::parse_json(canonical);
  EXPECT_EQ(parsed.dump(), canonical);
  // Key order in the input does not matter — dump() sorts.
  EXPECT_EQ(fv::serve::parse_json("{\"b\":1,\"a\":2}").dump(),
            "{\"a\":2,\"b\":1}");
  // Escapes round-trip.
  EXPECT_EQ(fv::serve::parse_json("\"a\\nb\\u0041\"").dump(), "\"a\\nbA\"");
}

TEST(ServeJson, MalformedInputIsTypedParseError) {
  EXPECT_THROW(fv::serve::parse_json(""), fv::ParseError);
  EXPECT_THROW(fv::serve::parse_json("{"), fv::ParseError);
  EXPECT_THROW(fv::serve::parse_json("{}x"), fv::ParseError);
  EXPECT_THROW(fv::serve::parse_json("{'a':1}"), fv::ParseError);
  EXPECT_THROW(fv::serve::parse_json("[1,]"), fv::ParseError);
  EXPECT_THROW(fv::serve::parse_json("\"\\ud800\""), fv::ParseError);
  EXPECT_THROW(fv::serve::parse_json("1e999"), fv::ParseError);  // infinite
  // Nesting bound: 100 levels deep must be refused, not crash the stack.
  EXPECT_THROW(
      fv::serve::parse_json(std::string(100, '[') + std::string(100, ']')),
      fv::ParseError);
}

TEST(ServeJson, NumberFormattingIsFixed) {
  EXPECT_EQ(fv::serve::format_json_number(0.0), "0");
  EXPECT_EQ(fv::serve::format_json_number(42.0), "42");
  EXPECT_EQ(fv::serve::format_json_number(-7.0), "-7");
  EXPECT_EQ(fv::serve::format_json_number(2.5), "2.5");
  // Round-trip: parse(dump(x)) == x bit-exactly.
  const double value = 0.30479964613914490;
  const std::string printed = fv::serve::format_json_number(value);
  EXPECT_EQ(fv::serve::parse_json(printed).as_number(), value);
}

TEST(ServeHttp, RequestParsing) {
  const HttpRequest request = fv::serve::parse_http_request(
      "POST /a/b?x=1&y=hello%20world HTTP/1.1\r\n"
      "Content-Type: application/json\r\n"
      "Content-Length: 2\r\n"
      "\r\n"
      "{}");
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.path, "/a/b");
  EXPECT_EQ(request.query.at("x"), "1");
  EXPECT_EQ(request.query.at("y"), "hello world");
  EXPECT_EQ(request.headers.at("content-type"), "application/json");
  EXPECT_EQ(request.body, "{}");

  EXPECT_THROW(fv::serve::parse_http_request("GET\r\n\r\n"), fv::ParseError);
  EXPECT_THROW(fv::serve::parse_http_request("GET / HTTP/1.1\r\n"),
               fv::ParseError);
  EXPECT_THROW(fv::serve::parse_http_request(
                   "GET / HTTP/1.1\r\nContent-Length: 5\r\n\r\nab"),
               fv::ParseError);
  EXPECT_THROW(
      fv::serve::parse_http_request(std::string(64, 'x'), /*max_bytes=*/16),
      fv::ParseError);
}

}  // namespace
