// ISSUE 10 benchmarks: the serving layer (src/serve) under multi-user
// load — N sessions over ONE shared borrowed-mapped compendium artifact.
//
// What this bench reports:
//  * BM_ServeHealthz        — request-dispatch overhead (no job)
//  * BM_ServeColdTopkJob    — submit -> wait -> fetch of a top-k job on a
//                             FRESH service: the full compute cost a first
//                             user pays on the mapped n=4000 engine
//  * BM_ServeCachedTopkJob  — the same request against a warmed service:
//                             the content-addressed cache path
//  * BM_ServeSessionCreateDelete — POST /sessions then DELETE of that
//                             session: what a session's lifetime costs
//                             the service (and holds its lock for)
//  * BM_ServeConcurrent8Users — 8 client threads round-tripping cached
//                             jobs against one service; per-request
//                             latencies feed a p99_ms counter so the tail
//                             lands in the JSON snapshot run_benches.sh
//                             records
//  * An ISSUE 10 epilogue: 8 concurrent synthetic users on the shared
//    mapped compendium — every response byte-compared against a
//    single-user serial reference (gate: bit-identical), cache-hit vs
//    cold-compute wall time (gate: >= 10x), and the concurrent p99.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "expr/dataset.hpp"
#include "expr/gene.hpp"
#include "par/thread_pool.hpp"
#include "serve/json.hpp"
#include "serve/service.hpp"
#include "sim/similarity_engine.hpp"
#include "store/artifact_store.hpp"
#include "store/cached.hpp"
#include "util/rng.hpp"

namespace {

namespace ex = fv::expr;
namespace sv = fv::serve;
namespace st = fv::store;
namespace fs = std::filesystem;

constexpr std::size_t kGenes = 4000;
constexpr std::size_t kConditions = 96;

/// Module-block compendium, same shape as bench_store: correlated gene
/// modules so top-k has real structure to find.
ex::ExpressionMatrix module_block_matrix() {
  constexpr std::size_t kModuleSize = 250;
  constexpr std::size_t kDatasetCols = 16;
  const std::size_t datasets = kConditions / kDatasetCols;
  fv::Rng rng(104000);
  ex::ExpressionMatrix m(kGenes, kConditions);
  for (std::size_t g = 0; g < kGenes; ++g) {
    const std::size_t module = g / kModuleSize;
    const std::size_t d0 = module % datasets;
    const std::size_t d1 = (module + 1 + module / datasets) % datasets;
    const double freq = 0.25 + 0.05 * static_cast<double>(module % 7);
    const double phase = 0.61 * static_cast<double>(module);
    for (std::size_t c = 0; c < kConditions; ++c) {
      const std::size_t dataset = c / kDatasetCols;
      double value = rng.normal(0.0, 0.05);
      if (dataset == d0 || dataset == d1) {
        value += std::sin(freq * static_cast<double>(c + 1) + phase);
      }
      m.set(g, c, static_cast<float>(value));
    }
  }
  return m;
}

/// The shared world every benchmark uses: one artifact store holding the
/// n=4000 engine, opened BORROWED-MAPPED (open_or_build_engine), so
/// all services, sessions and client threads read one shared mapping.
struct BenchWorld {
  std::string root;
  std::shared_ptr<const std::vector<ex::Dataset>> datasets;
  std::unique_ptr<st::ArtifactStore> store;
  sv::SharedCompendium compendium;
  fv::par::ThreadPool pool{4};

  BenchWorld() {
    root = (fs::temp_directory_path() / "fv_bench_serve").string();
    fs::remove_all(root);
    fs::create_directories(root);

    auto matrix = module_block_matrix();
    std::vector<ex::GeneInfo> genes(kGenes);
    for (std::size_t g = 0; g < kGenes; ++g) {
      char name[16];
      std::snprintf(name, sizeof(name), "G%05zu", g);
      genes[g] = ex::GeneInfo{name, name, "synthetic"};
    }
    std::vector<std::string> conditions(kConditions);
    for (std::size_t c = 0; c < kConditions; ++c) {
      conditions[c] = "cond" + std::to_string(c);
    }
    const st::ArtifactKey input_key = st::matrix_key(matrix);
    std::vector<ex::Dataset> vec;
    vec.emplace_back("bench_serve", std::move(genes), std::move(conditions),
                     std::move(matrix));
    datasets =
        std::make_shared<const std::vector<ex::Dataset>>(std::move(vec));

    store = std::make_unique<st::ArtifactStore>(root + "/store");
    auto engine = std::make_shared<fv::sim::SimilarityEngine>(
        st::open_or_build_engine(
            *store, input_key, [&] { return (*datasets)[0].values(); },
            fv::sim::Metric::kPearson));
    // SPELL is deliberately absent: the bench workload is cluster/topk.
    compendium = sv::make_shared_compendium(std::move(engine), datasets);
  }
  ~BenchWorld() { fs::remove_all(root); }
};

BenchWorld& world() {
  static BenchWorld w;
  return w;
}

sv::HttpRequest make_request(const std::string& method, const std::string& path,
                             const std::string& body = "") {
  sv::HttpRequest request;
  request.method = method;
  request.path = path;
  request.body = body;
  return request;
}

std::string json_field(const std::string& body, const std::string& key) {
  const sv::JsonValue parsed = sv::parse_json(body);
  const sv::JsonValue* value = parsed.find(key);
  if (value == nullptr) {
    std::fprintf(stderr, "bench_serve: no \"%s\" in response: %s\n",
                 key.c_str(), body.c_str());
    std::abort();
  }
  return value->as_string();
}

std::string create_session(sv::AnalysisService& service) {
  return json_field(service.handle(make_request("POST", "/sessions")).body,
                    "session");
}

/// One full client round trip: submit -> bounded wait -> fetch result
/// bytes. Aborts on any unexpected status (a bench must not average over
/// failures).
std::string run_job(sv::AnalysisService& service, const std::string& sid,
                    const std::string& body) {
  const auto submit =
      service.handle(make_request("POST", "/sessions/" + sid + "/jobs", body));
  if (submit.status != 202 && submit.status != 200) std::abort();
  const std::string job = json_field(submit.body, "job");
  service.wait_job(job, std::chrono::minutes(5));
  const auto result = service.handle(
      make_request("GET", "/sessions/" + sid + "/jobs/" + job + "/result"));
  if (result.status != 200) std::abort();
  return result.body;
}

/// The mixed job bodies of the multi-user scenario. All are pure
/// functions of the shared compendium, so they cache and byte-compare.
std::vector<std::string> job_mix() {
  return {
      "{\"type\":\"topk\",\"k\":5,\"rows\":32}",
      "{\"type\":\"topk\",\"k\":10,\"rows\":32}",
      "{\"type\":\"topk\",\"k\":10,\"rows\":64,\"strategy\":\"exact\"}",
      "{\"type\":\"topk\",\"k\":15,\"rows\":16}",
  };
}

constexpr const char* kColdBody = "{\"type\":\"topk\",\"k\":10,\"rows\":32}";

void BM_ServeHealthz(benchmark::State& state) {
  sv::AnalysisService service(world().compendium, world().pool);
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.handle(make_request("GET", "/healthz")));
  }
}
BENCHMARK(BM_ServeHealthz);

void BM_ServeColdTopkJob(benchmark::State& state) {
  for (auto _ : state) {
    // A fresh service has an empty result cache: this is the cold path.
    sv::AnalysisService service(world().compendium, world().pool);
    const std::string sid = create_session(service);
    benchmark::DoNotOptimize(run_job(service, sid, kColdBody));
  }
}
BENCHMARK(BM_ServeColdTopkJob)->Unit(benchmark::kMillisecond);

void BM_ServeCachedTopkJob(benchmark::State& state) {
  sv::AnalysisService service(world().compendium, world().pool);
  const std::string sid = create_session(service);
  (void)run_job(service, sid, kColdBody);  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_job(service, sid, kColdBody));
  }
}
BENCHMARK(BM_ServeCachedTopkJob)->Unit(benchmark::kMicrosecond);

void BM_ServeSessionCreateDelete(benchmark::State& state) {
  sv::AnalysisService service(world().compendium, world().pool);
  for (auto _ : state) {
    const std::string sid = create_session(service);
    const auto deleted =
        service.handle(make_request("DELETE", "/sessions/" + sid));
    if (deleted.status != 200) std::abort();
  }
}
BENCHMARK(BM_ServeSessionCreateDelete)->Unit(benchmark::kMicrosecond);

void BM_ServeConcurrent8Users(benchmark::State& state) {
  constexpr std::size_t kUsers = 8;
  sv::AnalysisService::Options options;
  options.job_workers = 4;
  options.max_active_jobs = 64;
  sv::AnalysisService service(world().compendium, world().pool, options);
  {
    const std::string sid = create_session(service);
    for (const std::string& body : job_mix()) (void)run_job(service, sid, body);
  }
  // One session per user, created OUTSIDE the timing loop: the benchmark
  // iterates many times and per-iteration sessions would overflow the
  // (deliberately bounded) session table.
  std::vector<std::string> sessions(kUsers);
  for (std::size_t u = 0; u < kUsers; ++u) {
    sessions[u] = create_session(service);
  }

  std::vector<double> latencies_ms;
  for (auto _ : state) {
    std::vector<std::thread> users;
    std::vector<std::vector<double>> per_user(kUsers);
    for (std::size_t u = 0; u < kUsers; ++u) {
      users.emplace_back([&service, &per_user, &sessions, u] {
        const std::string& sid = sessions[u];
        for (const std::string& body : job_mix()) {
          const auto start = std::chrono::steady_clock::now();
          (void)run_job(service, sid, body);
          per_user[u].push_back(
              std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count());
        }
      });
    }
    for (std::thread& t : users) t.join();
    for (const auto& user : per_user) {
      latencies_ms.insert(latencies_ms.end(), user.begin(), user.end());
    }
  }
  std::sort(latencies_ms.begin(), latencies_ms.end());
  if (!latencies_ms.empty()) {
    const std::size_t idx = std::min(
        latencies_ms.size() - 1,
        static_cast<std::size_t>(0.99 * static_cast<double>(latencies_ms.size())));
    state.counters["p99_ms"] = latencies_ms[idx];
    state.counters["p50_ms"] = latencies_ms[latencies_ms.size() / 2];
  }
}
BENCHMARK(BM_ServeConcurrent8Users)->Unit(benchmark::kMillisecond);

double seconds_of(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// The ISSUE 10 acceptance epilogue.
void report_issue10_targets() {
  constexpr std::size_t kUsers = 8;
  constexpr std::size_t kRoundsPerUser = 4;
  const std::vector<std::string> mix = job_mix();

  // 1. Single-user serial reference: each distinct body computed once, in
  //    order, on its own service.
  std::map<std::string, std::string> reference;
  {
    sv::AnalysisService serial(world().compendium, world().pool);
    const std::string sid = create_session(serial);
    for (const std::string& body : mix) {
      reference[body] = run_job(serial, sid, body);
    }
  }

  // 2. 8 concurrent synthetic users on a fresh service over the SAME
  //    shared mapped compendium, every response byte-compared.
  sv::AnalysisService::Options options;
  options.job_workers = 4;
  options.max_active_jobs = kUsers * mix.size();
  sv::AnalysisService service(world().compendium, world().pool, options);
  std::vector<std::vector<double>> per_user(kUsers);
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> users;
  for (std::size_t u = 0; u < kUsers; ++u) {
    users.emplace_back([&, u] {
      const std::string sid = create_session(service);
      for (std::size_t round = 0; round < kRoundsPerUser; ++round) {
        for (std::size_t j = 0; j < mix.size(); ++j) {
          const std::string& body = mix[(j + u) % mix.size()];
          const auto start = std::chrono::steady_clock::now();
          const std::string result = run_job(service, sid, body);
          per_user[u].push_back(
              std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count());
          if (result != reference.at(body)) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : users) t.join();

  std::vector<double> latencies;
  for (const auto& user : per_user) {
    latencies.insert(latencies.end(), user.begin(), user.end());
  }
  std::sort(latencies.begin(), latencies.end());
  const double p99 =
      latencies[std::min(latencies.size() - 1,
                         static_cast<std::size_t>(
                             0.99 * static_cast<double>(latencies.size())))];

  // 3. Cache-hit vs cold-compute on one more fresh service.
  double cold_s = 0.0;
  double warm_s = 0.0;
  {
    sv::AnalysisService fresh(world().compendium, world().pool);
    const std::string sid = create_session(fresh);
    cold_s = seconds_of([&] { (void)run_job(fresh, sid, kColdBody); });
    warm_s = seconds_of([&] { (void)run_job(fresh, sid, kColdBody); });
    for (int i = 0; i < 4; ++i) {
      warm_s = std::min(
          warm_s, seconds_of([&] { (void)run_job(fresh, sid, kColdBody); }));
    }
  }
  const double speedup = warm_s > 0.0 ? cold_s / warm_s : 0.0;

  const bool identical = mismatches.load() == 0;
  std::printf(
      "\n[ISSUE 10 targets @ %zu genes x %zu conditions, shared mapped "
      "compendium]\n"
      "  %zu concurrent users x %zu requests: %zu responses, p50 %.3f ms, "
      "p99 %.3f ms\n"
      "  bit-identical to single-user serial reference: %s\n"
      "  cache hit %.6f s vs cold compute %.4f s — %.1fx (target >= 10x: "
      "%s)\n"
      "  service stats: computes=%llu cache_hits=%llu rejected=%llu\n",
      kGenes, kConditions, kUsers, kRoundsPerUser * mix.size(),
      latencies.size(), latencies[latencies.size() / 2], p99,
      identical ? "PASS" : "FAIL", warm_s, cold_s, speedup,
      speedup >= 10.0 ? "PASS" : "FAIL",
      static_cast<unsigned long long>(service.stats().computes.load()),
      static_cast<unsigned long long>(service.stats().cache_hits.load()),
      static_cast<unsigned long long>(service.stats().jobs_rejected.load()));
  if (!identical || speedup < 10.0) {
    std::printf("  ISSUE 10 GATE FAILED\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  report_issue10_targets();
  return 0;
}
