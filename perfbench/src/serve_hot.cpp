// serve_hot: session traffic on a primed result cache, no compute.
//
// Set-up primes the cache with a catalogue of distinct top-k, SPELL and
// cluster keys (bodies from about 1 KiB to about 1 MiB, fewer keys than
// the 256-entry cache). Four closed-loop clients then cycle through
// sessions: create, a seeded shuffle of reads (session get, job status,
// result fetch, healthz, stats), job submissions that all hit, and
// selections by name, then delete.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "serve_world.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

namespace sv = fv::serve;

constexpr std::size_t kClients = 4;
constexpr std::size_t kTopkKeys = 24;
constexpr std::size_t kSpellKeys = 12;
constexpr const char* kLinkages[] = {"single", "complete", "average"};
/// Cycles per client folded into the printed traffic digest.
constexpr std::size_t kDigestCycles = 256;

enum class Op {
  kCreate, kSubmit, kStatus, kResult, kGet, kSelect, kHealthz, kStats,
  kDelete
};

/// Request class names, indexed by Op.
constexpr const char* kOpNames[] = {"create", "submit",  "status",
                                    "result", "get",     "select",
                                    "healthz", "stats",  "delete"};

/// The ops between create and delete of one session, before the shuffle.
constexpr Op kCycleOps[] = {
    Op::kSubmit,  Op::kSubmit,  Op::kSubmit,  Op::kSubmit,  Op::kStatus,
    Op::kStatus,  Op::kStatus,  Op::kResult,  Op::kResult,  Op::kResult,
    Op::kResult,  Op::kGet,     Op::kGet,     Op::kGet,     Op::kSelect,
    Op::kSelect,  Op::kSelect,  Op::kHealthz, Op::kHealthz, Op::kStats,
    Op::kStats};

struct Step {
  Op op = Op::kHealthz;
  std::uint32_t arg = 0;  ///< catalogue key (submit) or session job index
  std::string body;       ///< select body
};

std::vector<std::string> make_catalogue(std::uint64_t seed,
                                        const std::vector<std::string>& genes) {
  fv::Rng rng(derive_seed(seed, 0x2222));
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < kTopkKeys; ++i) {
    std::string body;
    do {
      const std::size_t k = 5 + rng.uniform_u64(8);
      // rows log-uniform over [16, 4000]: about 1 KiB to about 1 MiB.
      const std::size_t rows = static_cast<std::size_t>(std::lround(
          16.0 * std::pow(4000.0 / 16.0,
                          static_cast<double>(i) / (kTopkKeys - 1))));
      body = "{\"k\":" + std::to_string(k) +
             ",\"min_common\":" + std::to_string(rng.uniform_u64(9)) +
             ",\"rows\":" + std::to_string(rows) + ",\"strategy\":\"" +
             (rng.bernoulli(0.5) ? "auto" : "pruned") + "\",\"type\":\"topk\"}";
    } while (std::find(keys.begin(), keys.end(), body) != keys.end());
    keys.push_back(body);
  }
  for (std::size_t i = 0; i < kSpellKeys; ++i) {
    const std::size_t module = rng.uniform_u64(kServeGenes / 250);
    const auto picks = rng.sample_without_replacement(250, 2 + rng.uniform_u64(9));
    std::string body = "{\"query\":[";
    for (std::size_t p = 0; p < picks.size(); ++p) {
      body += (p ? ",\"" : "\"") + genes[module * 250 + picks[p]] + "\"";
    }
    keys.push_back(body + "],\"type\":\"spell\"}");
  }
  for (const char* linkage : kLinkages) {
    keys.push_back(std::string("{\"linkage\":\"") + linkage +
                   "\",\"type\":\"cluster\"}");
  }
  return keys;
}

/// Cycle `cycle` of client `client`: a pure function of the seed.
std::vector<Step> make_cycle(std::uint64_t seed, std::size_t client,
                             std::size_t cycle, std::size_t catalogue_size,
                             const std::vector<std::string>& genes) {
  fv::Rng rng(derive_seed(seed, 0x3000000 + client * 0x100000 + cycle));
  std::vector<Op> ops(std::begin(kCycleOps), std::end(kCycleOps));
  rng.shuffle(ops);
  std::vector<Step> steps;
  steps.push_back(Step{Op::kCreate, 0, {}});
  std::size_t submitted = 0;
  for (Op op : ops) {
    Step step{op, 0, {}};
    if ((op == Op::kStatus || op == Op::kResult) && submitted == 0) {
      step.op = op = Op::kSubmit;
    }
    if (op == Op::kSubmit) {
      step.arg = static_cast<std::uint32_t>(rng.uniform_u64(catalogue_size));
      ++submitted;
    } else if (op == Op::kStatus || op == Op::kResult) {
      step.arg = static_cast<std::uint32_t>(rng.uniform_u64(submitted));
    } else if (op == Op::kSelect) {
      const std::size_t count = 1 + rng.uniform_u64(20);
      step.body = "{\"names\":[";
      for (std::size_t i = 0; i < count; ++i) {
        step.body += (i ? ",\"" : "\"") +
                     genes[rng.uniform_u64(genes.size())] + "\"";
      }
      step.body += "]}";
    }
    steps.push_back(std::move(step));
  }
  steps.push_back(Step{Op::kDelete, 0, {}});
  return steps;
}

bool is_write(Op op) {
  return op == Op::kCreate || op == Op::kSelect || op == Op::kDelete;
}

/// Loopback TIME_WAIT reuse (net.ipv4.tcp_tw_reuse) and the ephemeral port
/// count: without reuse every request holds a port for a minute.
std::pair<int, std::size_t> port_budget() {
  int reuse = 0;
  std::ifstream("/proc/sys/net/ipv4/tcp_tw_reuse") >> reuse;
  std::size_t low = 32768, high = 60999;
  std::ifstream("/proc/sys/net/ipv4/ip_local_port_range") >> low >> high;
  return {reuse, high >= low ? high - low + 1 : 0};
}

}  // namespace

void run_serve_hot(const Args& args, Report& report) {
  std::vector<std::string> catalogue;
  std::vector<std::uint64_t> primed;  ///< hash of each key's body
  std::vector<double> primed_kib;
  const auto prime = [&](ServeWorld& world) {
    if (catalogue.empty()) catalogue = make_catalogue(args.seed, world.gene_names);
    primed.assign(catalogue.size(), 0);
    primed_kib.clear();
    sv::AnalysisService& service = *world.service;
    const std::string sid = handle_session(service);
    for (std::size_t first = 0; first < catalogue.size(); first += kMaxBatch) {
      const std::vector<std::string> bodies(
          catalogue.begin() + static_cast<long>(first),
          catalogue.begin() +
              static_cast<long>(std::min(catalogue.size(), first + kMaxBatch)));
      const std::vector<std::string> results = handle_jobs(service, sid, bodies);
      for (std::size_t i = 0; i < results.size(); ++i) {
        primed[first + i] = hash_bytes(results[i]);
        primed_kib.push_back(static_cast<double>(results[i].size()) / 1024.0);
      }
    }
  };
  std::unique_ptr<ServeWorld> world = set_up_serve(args, report, prime);
  trace::set_thread_enabled(false);
  const std::uint16_t port = world->server->port();
  const std::vector<std::string>& genes = world->gene_names;

  Digest digest;
  for (const std::string& key : catalogue) digest.add(key);
  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::size_t cycle = 0; cycle < kDigestCycles; ++cycle) {
      for (const Step& s :
           make_cycle(args.seed, c, cycle, catalogue.size(), genes)) {
        digest.add(static_cast<std::uint64_t>(s.op) << 32 | s.arg);
        digest.add(s.body);
      }
    }
  }
  std::printf("traffic digest %s (%zu catalogue keys, %.1f..%.1f KiB)\n",
              digest.hex().c_str(), catalogue.size(),
              *std::min_element(primed_kib.begin(), primed_kib.end()),
              *std::max_element(primed_kib.begin(), primed_kib.end()));

  const auto [tw_reuse, ports] = port_budget();
  // Without TIME_WAIT reuse a run may open at most 80% of the ports.
  const std::uint64_t connection_cap =
      tw_reuse != 0 ? UINT64_MAX : static_cast<std::uint64_t>(ports) * 4 / 5;
  std::atomic<std::uint64_t> connections{0};

  std::vector<std::vector<double>> latency(kClients), writes(kClients),
      traced(kClients), untraced(kClients);
  std::vector<std::int64_t> client_end(kClients);
  const std::int64_t start = now_ns();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(args.seconds * 1e9);
  {
    std::vector<std::jthread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        std::size_t request = 0;
        for (std::size_t cycle = 0;
             now_ns() < deadline &&
             connections.load(std::memory_order_relaxed) < connection_cap;
             ++cycle) {
          std::string session;
          std::vector<std::pair<std::string, std::uint32_t>> jobs;
          for (const Step& step :
               make_cycle(args.seed, c, cycle, catalogue.size(), genes)) {
            // A cycle always ends with its delete, so no session leaks.
            if (step.op != Op::kDelete &&
                (now_ns() >= deadline ||
                 connections.load(std::memory_order_relaxed) >=
                     connection_cap)) {
              if (session.empty()) break;
              continue;
            }
            if (step.op != Op::kCreate && session.empty()) break;
            const bool on = args.trace && request++ % 2 == 1;
            trace::set_thread_enabled(on);
            report.attempt(kOpNames[static_cast<int>(step.op)]);
            connections.fetch_add(1, std::memory_order_relaxed);
            const std::string base = "/sessions/" + session;
            try {
              const std::int64_t t0 = now_ns();
              HttpReply reply;
              int expect = 200;
              switch (step.op) {
                case Op::kCreate:
                  reply = http_call(port, "POST", "/sessions");
                  expect = 201;
                  break;
                case Op::kSubmit:
                  reply = http_call(port, "POST", base + "/jobs",
                                    catalogue[step.arg]);
                  break;
                case Op::kStatus:
                  reply = http_call(port, "GET",
                                    base + "/jobs/" + jobs[step.arg].first);
                  break;
                case Op::kResult:
                  reply = http_call(
                      port, "GET",
                      base + "/jobs/" + jobs[step.arg].first + "/result");
                  break;
                case Op::kGet: reply = http_call(port, "GET", base); break;
                case Op::kSelect:
                  reply = http_call(port, "POST", base + "/select", step.body);
                  break;
                case Op::kHealthz:
                  reply = http_call(port, "GET", "/healthz");
                  break;
                case Op::kStats: reply = http_call(port, "GET", "/stats"); break;
                case Op::kDelete:
                  reply = http_call(port, "DELETE", base);
                  break;
              }
              const double ms = ms_between(t0, now_ns());
              trace::set_thread_enabled(false);
              latency[c].push_back(ms);
              if (is_write(step.op)) writes[c].push_back(ms);
              if (args.trace) (on ? traced : untraced)[c].push_back(ms);
              if (reply.status != expect) {
                report.fail(kOpNames[static_cast<int>(step.op)],
                            "answered " + std::to_string(reply.status) +
                            ": " + reply.body.substr(0, 120));
                if (step.op == Op::kCreate) break;
                continue;
              }
              // Outputs are checked after the clock stopped for this request.
              if (step.op == Op::kCreate) {
                session = json_string_field(reply.body, "session");
              } else if (step.op == Op::kSubmit) {
                if (reply.body.find("\"cached\":true") == std::string::npos) {
                  report.fail("submit", "missed the primed cache");
                }
                jobs.emplace_back(json_string_field(reply.body, "job"),
                                  step.arg);
              } else if (step.op == Op::kStatus &&
                         json_string_field(reply.body, "state") != "done") {
                report.fail("status", "primed job not done");
              } else if (step.op == Op::kResult &&
                         hash_bytes(reply.body) !=
                             primed[jobs[step.arg].second]) {
                report.fail("result", "bytes differ from the primed bytes");
              }
            } catch (const std::exception& error) {
              trace::set_thread_enabled(false);
              report.fail(kOpNames[static_cast<int>(step.op)], error.what());
              if (step.op == Op::kCreate) break;
            }
          }
        }
        client_end[c] = now_ns();
      });
    }
  }
  const double elapsed_s =
      static_cast<double>(
          *std::max_element(client_end.begin(), client_end.end()) - start) /
      1e9;

  std::vector<double> all, write, on, off;
  for (std::size_t c = 0; c < kClients; ++c) {
    all.insert(all.end(), latency[c].begin(), latency[c].end());
    write.insert(write.end(), writes[c].begin(), writes[c].end());
    on.insert(on.end(), traced[c].begin(), traced[c].end());
    off.insert(off.end(), untraced[c].begin(), untraced[c].end());
  }
  const double req_per_s = static_cast<double>(all.size()) / elapsed_s;
  const fv::serve::ServiceStats& stats = world->service->stats();
  std::printf("load: %.3f s, %zu requests over %llu connections "
              "(tcp_tw_reuse=%d, %zu ephemeral ports); service sessions "
              "left=%zu\n",
              elapsed_s, all.size(),
              static_cast<unsigned long long>(connections.load()), tw_reuse,
              ports, world->service->session_count());

  std::printf("serve_hot end-to-end (4 clients, %.0f s):\n", args.seconds);
  print_percentile("req_p50_ms", all, 0.50);
  print_percentile("req_p90_ms", all, 0.90);
  print_percentile("write_p50_ms", write, 0.50);
  std::printf("  %-22s %12.4f 1/s  [n=%zu]\n", "req_per_s", req_per_s,
              all.size());

  report.end_to_end("latency_ms", percentile(all, 0.50), "ms");
  report.end_to_end("tail_ms", percentile(all, 0.90), "ms");
  report.end_to_end("aux_ms", percentile(write, 0.50), "ms");
  report.end_to_end("throughput_per_s", req_per_s, "1/s");

  if (args.trace) {
    report_serve_layers(trace::spans(), report);
    const double submitted = static_cast<double>(stats.jobs_submitted.load());
    // The priming submissions of the kept world are compute, not hits.
    const double primes = static_cast<double>(catalogue.size());
    report.layer("service.hit_ratio",
                 submitted > primes
                     ? static_cast<double>(stats.cache_hits.load()) /
                           (submitted - primes)
                     : 0.0,
                 "ratio");
    report.layer("service.dup_computes",
                 static_cast<double>(stats.computes.load()) - primes, "count");
    report.layer("service.rejected",
                 static_cast<double>(stats.jobs_rejected.load()), "count");
    double kib = 0.0;
    for (const double v : primed_kib) kib += v;
    report.layer("json.result_kib", kib / static_cast<double>(primed_kib.size()),
                 "KiB");
    report.layer("trace.overhead_frac",
                 percentile(on, 0.5) / percentile(off, 0.5) - 1.0, "ratio");
  }
}

}  // namespace pb
