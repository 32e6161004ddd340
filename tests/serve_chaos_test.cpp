// Seeded chaos scenarios for the serving layer (src/serve).
//
// Where serve_test.cpp pins individual endpoint contracts, this suite runs
// the serving layer the way production would hurt it — and asserts the
// properties that make a multi-user analysis server trustworthy:
//
//   * ConcurrentClientsBitIdentical — 8 client threads hammer mixed
//     cluster/topk/spell jobs against ONE shared borrowed-mapped engine
//     artifact; every response must be bit-identical to the single-user
//     serial reference (same bytes, any concurrency).
//   * SaturationUnderConcurrency — more clients than queue slots: every
//     submit either succeeds or is a typed 503, the admitted set all
//     complete, nothing hangs, nothing crashes.
//   * SeededFaultReplay — request-path fault injection replays exactly
//     under a fixed seed regardless of thread interleaving.
//   * AbandonedJobsReapedUnderLoad — jobs abandoned by their client are
//     reaped on the logical request clock while other clients keep working.
//   * CrashMidJobLeavesStoreRepairable — a simulated process death while
//     persisting a result fails that one job, the service keeps serving,
//     and fsck_repair returns the artifact store to clean.
//
// Runs under TSan in CI (the Serve.* / ServeChaos.* leg) — the shared
// mapped compendium plus per-session locks is exactly the aliasing pattern
// a race would hide in.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "expr/synth.hpp"
#include "serve/json.hpp"
#include "serve/service.hpp"
#include "store/artifact_store.hpp"
#include "store/cached.hpp"
#include "store/fsck.hpp"

namespace {

namespace fs = std::filesystem;
using fv::serve::AnalysisService;
using fv::serve::HttpRequest;
using fv::serve::HttpResponse;
using fv::serve::JsonValue;

HttpRequest make_request(const std::string& method, const std::string& path,
                         const std::string& body = "") {
  HttpRequest request;
  request.method = method;
  request.path = path;
  request.body = body;
  return request;
}

std::string json_field(const std::string& body, const std::string& key) {
  return fv::serve::parse_json(body).find(key)->as_string();
}

/// The mixed job workload: one body per job kind, parameterized so client
/// c's i-th job is deterministic. Distinct (c, i) pairs map onto a small
/// set of distinct param combinations so the cache sees both hits and
/// misses under concurrency.
std::string job_body(std::size_t client, std::size_t index,
                     const std::string& gene) {
  switch ((client + index) % 4) {
    case 0:
      return "{\"type\":\"cluster\",\"linkage\":\"average\"}";
    case 1:
      return "{\"type\":\"topk\",\"k\":" + std::to_string(3 + index % 3) +
             ",\"rows\":16}";
    case 2:
      return "{\"type\":\"spell\",\"query\":[\"" + gene + "\"],\"limit\":" +
             std::to_string(10 + client % 2 * 10) + "}";
    default:
      return "{\"type\":\"cluster\",\"linkage\":\"single\"}";
  }
}

/// Shared fixture: a synthetic compendium whose engine and SPELL banks are
/// persisted to an artifact store once and then opened BORROWED-MAPPED —
/// all sessions and all client threads read one shared read-only mapping,
/// which is the deployment shape (and the aliasing TSan must bless).
class ServeChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Per-process dir: ctest runs each test case as its own process, in
    // parallel — a shared fixed path would let one process's
    // SetUpTestSuite remove_all another's live store.
    dir_ = (fs::temp_directory_path() /
            ("fv_serve_chaos." + std::to_string(::getpid())))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);

    fv::expr::CompendiumSpec spec;
    spec.genome = fv::expr::GenomeSpec::yeast_like(150);
    spec.seed = 11;
    datasets_ = new std::shared_ptr<const std::vector<fv::expr::Dataset>>(
        std::make_shared<std::vector<fv::expr::Dataset>>(
            fv::expr::make_compendium(spec).datasets));
    pool_ = new fv::par::ThreadPool(2);
    store_ = new fv::store::ArtifactStore(dir_ + "/engine_store");

    const fv::expr::ExpressionMatrix& matrix = (**datasets_)[0].values();
    const auto open = [&] {
      return fv::serve::open_shared_compendium(
          *store_, fv::store::matrix_key(matrix), [&] { return matrix; },
          *datasets_, fv::sim::Metric::kPearson, *pool_);
    };
    // The first open builds and persists the engine and the SPELL banks;
    // the second is a restarted server's warm open, so the clients below
    // read borrowed SPELL banks as well as the borrowed engine.
    (void)open();
    compendium_ = new fv::serve::SharedCompendium(open());
    gene_ = (**datasets_)[0].gene(0).systematic_name;
  }

  static void TearDownTestSuite() {
    delete compendium_;
    delete store_;
    delete pool_;
    delete datasets_;
    fs::remove_all(dir_);
  }

  static std::string dir_;
  static std::string gene_;
  static std::shared_ptr<const std::vector<fv::expr::Dataset>>* datasets_;
  static fv::par::ThreadPool* pool_;
  static fv::store::ArtifactStore* store_;
  static fv::serve::SharedCompendium* compendium_;
};

std::string ServeChaosTest::dir_;
std::string ServeChaosTest::gene_;
std::shared_ptr<const std::vector<fv::expr::Dataset>>*
    ServeChaosTest::datasets_ = nullptr;
fv::par::ThreadPool* ServeChaosTest::pool_ = nullptr;
fv::store::ArtifactStore* ServeChaosTest::store_ = nullptr;
fv::serve::SharedCompendium* ServeChaosTest::compendium_ = nullptr;

TEST_F(ServeChaosTest, ConcurrentClientsBitIdenticalToSerialReference) {
  constexpr std::size_t kClients = 8;
  constexpr std::size_t kJobsPerClient = 4;
  // Both fixture parts came off the warm open: engine and SPELL banks.
  ASSERT_EQ(store_->stats().warm_opens.load(), 2u);
  ASSERT_EQ(compendium_->engine->storage(),
            fv::sim::EngineStorage::kBorrowedMapped);

  // Serial reference: one client, one session, every distinct job body,
  // in order, on a fresh service over the same mapped compendium.
  std::map<std::string, std::string> reference;
  {
    AnalysisService serial(*compendium_, *pool_);
    const HttpResponse created =
        serial.handle(make_request("POST", "/sessions"));
    const std::string sid = json_field(created.body, "session");
    for (std::size_t c = 0; c < kClients; ++c) {
      for (std::size_t i = 0; i < kJobsPerClient; ++i) {
        const std::string body = job_body(c, i, gene_);
        if (reference.count(body) != 0) continue;
        const HttpResponse submit = serial.handle(
            make_request("POST", "/sessions/" + sid + "/jobs", body));
        ASSERT_TRUE(submit.status == 202 || submit.status == 200)
            << submit.body;
        const std::string job = json_field(submit.body, "job");
        serial.wait_job(job, std::chrono::minutes(2));
        const HttpResponse result = serial.handle(make_request(
            "GET", "/sessions/" + sid + "/jobs/" + job + "/result"));
        ASSERT_EQ(result.status, 200) << result.body;
        reference[body] = result.body;
      }
    }
  }

  // Concurrent run: 8 client threads, each with its own session, all jobs
  // admitted (queue sized to the offered load), every result byte-compared
  // against the serial reference.
  AnalysisService::Options options;
  options.job_workers = 4;
  options.max_active_jobs = kClients * kJobsPerClient;
  AnalysisService service(*compendium_, *pool_, options);

  std::atomic<std::size_t> mismatches{0};
  std::atomic<std::size_t> completed{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const HttpResponse created =
          service.handle(make_request("POST", "/sessions"));
      ASSERT_EQ(created.status, 201);
      const std::string sid = json_field(created.body, "session");
      for (std::size_t i = 0; i < kJobsPerClient; ++i) {
        const std::string body = job_body(c, i, gene_);
        const HttpResponse submit = service.handle(
            make_request("POST", "/sessions/" + sid + "/jobs", body));
        ASSERT_TRUE(submit.status == 202 || submit.status == 200)
            << submit.body;
        const std::string job = json_field(submit.body, "job");
        service.wait_job(job, std::chrono::minutes(2));
        const HttpResponse result = service.handle(make_request(
            "GET", "/sessions/" + sid + "/jobs/" + job + "/result"));
        ASSERT_EQ(result.status, 200) << result.body;
        if (result.body != reference.at(body)) {
          mismatches.fetch_add(1);
        }
        completed.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(mismatches.load(), 0u)
      << "concurrent responses diverged from the serial reference";
  EXPECT_EQ(completed.load(), kClients * kJobsPerClient);
  EXPECT_EQ(service.session_count(), kClients);
  // The cache collapsed repeat bodies: computes < total jobs, and every
  // job body was computed at most once... per race window; at least the
  // distinct-body floor holds.
  EXPECT_GE(service.stats().computes.load(), reference.size() > 0 ? 1u : 0u);
  EXPECT_GT(service.stats().cache_hits.load(), 0u);
}

TEST_F(ServeChaosTest, SaturationUnderConcurrencyIsGraceful) {
  AnalysisService::Options options;
  options.job_workers = 1;
  options.max_active_jobs = 2;
  AnalysisService service(*compendium_, *pool_, options);

  constexpr std::size_t kClients = 8;
  std::atomic<std::size_t> accepted{0};
  std::atomic<std::size_t> rejected{0};
  std::atomic<std::size_t> unexpected{0};
  std::vector<std::string> jobs[kClients];
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const HttpResponse created =
          service.handle(make_request("POST", "/sessions"));
      const std::string sid = json_field(created.body, "session");
      for (std::size_t i = 0; i < 3; ++i) {
        const HttpResponse submit = service.handle(make_request(
            "POST", "/sessions/" + sid + "/jobs", job_body(c, i, gene_)));
        if (submit.status == 202 || submit.status == 200) {
          accepted.fetch_add(1);
          jobs[c].push_back(json_field(submit.body, "job"));
        } else if (submit.status == 503) {
          rejected.fetch_add(1);
        } else {
          unexpected.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  // Saturation refused some submits with the typed 503 and admitted the
  // rest; there is no third outcome, and everything admitted completes.
  EXPECT_EQ(unexpected.load(), 0u);
  EXPECT_GT(rejected.load(), 0u);
  EXPECT_GT(accepted.load(), 0u);
  EXPECT_EQ(service.stats().jobs_rejected.load(), rejected.load());
  for (const auto& client_jobs : jobs) {
    for (const std::string& job : client_jobs) {
      EXPECT_NO_THROW(service.wait_job(job, std::chrono::minutes(2)));
    }
  }
}

TEST_F(ServeChaosTest, SeededFaultReplayIsInterleavingIndependent) {
  AnalysisService::Options options;
  options.faults.seed = 0xC0FFEE;
  options.faults.reject_rate = 0.25;

  // Pass 1: serial — record which request ticks were injected-rejected.
  std::vector<int> serial_statuses;
  {
    AnalysisService service(*compendium_, *pool_, options);
    for (int i = 0; i < 64; ++i) {
      serial_statuses.push_back(
          service.handle(make_request("GET", "/healthz")).status);
    }
  }

  // Pass 2: the same 64 requests issued by 4 racing threads. Which CLIENT
  // eats each rejection varies with interleaving, but the rejected tick
  // SET is fixed by (seed, tick) — so the total count must match exactly.
  const std::size_t serial_rejects = static_cast<std::size_t>(
      std::count(serial_statuses.begin(), serial_statuses.end(), 503));
  {
    AnalysisService service(*compendium_, *pool_, options);
    std::vector<std::thread> clients;
    for (int t = 0; t < 4; ++t) {
      clients.emplace_back([&service] {
        for (int i = 0; i < 16; ++i) {
          service.handle(make_request("GET", "/healthz"));
        }
      });
    }
    for (std::thread& t : clients) t.join();
    EXPECT_EQ(service.stats().injected_rejects.load(), serial_rejects);
  }
  EXPECT_GT(serial_rejects, 0u);
}

TEST_F(ServeChaosTest, AbandonedJobsReapedWhileOthersWork) {
  AnalysisService::Options options;
  options.job_ttl_requests = 8;
  AnalysisService service(*compendium_, *pool_, options);

  const HttpResponse created = service.handle(make_request("POST", "/sessions"));
  const std::string sid = json_field(created.body, "session");
  const HttpResponse submit = service.handle(make_request(
      "POST", "/sessions/" + sid + "/jobs", "{\"type\":\"topk\",\"k\":2}"));
  const std::string abandoned = json_field(submit.body, "job");
  service.wait_job(abandoned, std::chrono::minutes(2));

  // Another client keeps the server busy past the TTL without ever
  // touching the abandoned job.
  std::thread other([&service] {
    const HttpResponse other_created =
        service.handle(make_request("POST", "/sessions"));
    const std::string other_sid = json_field(other_created.body, "session");
    for (int i = 0; i < 12; ++i) {
      service.handle(make_request("GET", "/sessions/" + other_sid));
    }
  });
  other.join();

  EXPECT_GE(service.reap_abandoned(), 1u);
  EXPECT_EQ(service
                .handle(make_request(
                    "GET", "/sessions/" + sid + "/jobs/" + abandoned))
                .status,
            404);
  EXPECT_GE(service.stats().jobs_reaped.load(), 1u);
  // The session survives its reaped job.
  EXPECT_EQ(service.handle(make_request("GET", "/sessions/" + sid)).status,
            200);
}

TEST_F(ServeChaosTest, CrashMidJobLeavesStoreRepairable) {
  const std::string crash_dir = dir_ + "/crash_store";
  fs::remove_all(crash_dir);

  {
    // crash_at_op targets the result-persist commit: ops 1..N of this
    // store are the blob put (the engine store is a different store).
    fv::store::FaultSpec faults;
    faults.crash_at_op = 3;
    fv::store::ArtifactStore store(crash_dir, faults);
    AnalysisService::Options options;
    options.store = &store;
    AnalysisService service(*compendium_, *pool_, options);

    const HttpResponse created =
        service.handle(make_request("POST", "/sessions"));
    const std::string sid = json_field(created.body, "session");
    const HttpResponse submit = service.handle(make_request(
        "POST", "/sessions/" + sid + "/jobs", "{\"type\":\"topk\",\"k\":3}"));
    const std::string job = json_field(submit.body, "job");
    service.wait_job(job, std::chrono::minutes(2));

    // The job failed (its persist "process" died) but the service answers.
    const HttpResponse status = service.handle(
        make_request("GET", "/sessions/" + sid + "/jobs/" + job));
    EXPECT_EQ(status.status, 200);
    EXPECT_EQ(json_field(status.body, "state"), "failed");
    const HttpResponse result = service.handle(make_request(
        "GET", "/sessions/" + sid + "/jobs/" + job + "/result"));
    EXPECT_EQ(result.status, 500);
    EXPECT_NE(result.body.find("store crashed"), std::string::npos);
    EXPECT_EQ(service.stats().jobs_failed.load(), 1u);

    // And the server as a whole is still alive — crash_at_op fires on one
    // exact op index, so later requests pass the injector untouched.
    const HttpResponse healthz = service.handle(make_request("GET", "/healthz"));
    EXPECT_EQ(healthz.status, 200);
  }

  // The "dead process" left the store mid-commit; fsck repairs to clean.
  const fv::store::FsckReport before = fv::store::fsck_scan(crash_dir);
  const fv::store::FsckReport repaired = fv::store::fsck_repair(crash_dir);
  EXPECT_TRUE(fv::store::fsck_scan(crash_dir).clean())
      << "orphans before repair: " << before.orphan_tmp
      << ", repaired: " << repaired.repaired;

  // A restarted server over the repaired store serves the same request by
  // computing it fresh — bit-identical to a storeless serve.
  {
    fv::store::ArtifactStore store(crash_dir);
    AnalysisService::Options options;
    options.store = &store;
    AnalysisService service(*compendium_, *pool_, options);
    AnalysisService reference(*compendium_, *pool_);
    const auto run = [&](AnalysisService& target) {
      const HttpResponse created =
          target.handle(make_request("POST", "/sessions"));
      const std::string sid = json_field(created.body, "session");
      const HttpResponse submit = target.handle(make_request(
          "POST", "/sessions/" + sid + "/jobs", "{\"type\":\"topk\",\"k\":3}"));
      const std::string job = json_field(submit.body, "job");
      target.wait_job(job, std::chrono::minutes(2));
      return target
          .handle(make_request("GET",
                               "/sessions/" + sid + "/jobs/" + job + "/result"))
          .body;
    };
    EXPECT_EQ(run(service), run(reference));
  }
  fs::remove_all(crash_dir);
}

}  // namespace
