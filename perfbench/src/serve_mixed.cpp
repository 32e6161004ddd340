// serve_mixed: analysis jobs over HTTP, cold and repeated.
//
// Four closed-loop clients, one connection in flight each, against a fresh
// service and an empty store. Each client submits, long-polls the job with
// wait_ms=60000 and fetches the result. One op in three submits a key not
// yet in the traffic (a miss); the others repeat an earlier key (a hit, or
// a duplicate compute while the first is still in flight).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <set>
#include <thread>

#include "cluster/hclust.hpp"
#include "serve_world.hpp"
#include "sim/lsh.hpp"
#include "store/cached.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

namespace sv = fv::serve;

constexpr std::size_t kClients = 4;
/// Enough ops that no client runs out within a run, even at 10x today's
/// job rate.
constexpr std::size_t kOpsPerClient = 6000;
constexpr const char* kLinkages[] = {"single", "complete", "average"};
/// Miss positions that become the three clustering jobs, one per linkage.
constexpr std::size_t kClusterMissAt[] = {5, 29, 53};

enum class Kind { kAuto, kPruned, kExact, kApprox, kSpell, kCluster };

struct Key {
  Kind kind = Kind::kAuto;
  std::string body;  ///< the request body, canonical field order
};

struct Traffic {
  std::vector<Key> keys;                          ///< distinct, in miss order
  std::vector<std::vector<std::uint32_t>> ops;    ///< per client: key index
};

const char* strategy_name(Kind kind) {
  switch (kind) {
    case Kind::kPruned: return "pruned";
    case Kind::kExact: return "exact";
    case Kind::kApprox: return "approx";
    default: return "auto";
  }
}

/// The miss types of one block of 12 misses, before the seeded shuffle.
/// The last slot is the costly LSH path once every four blocks (1 miss in
/// 48), so the few approx long-polls do not set miss_p90 on their own.
std::vector<Kind> miss_block(std::size_t block) {
  return {Kind::kAuto,  Kind::kAuto,  Kind::kPruned, Kind::kPruned,
          Kind::kExact, Kind::kExact, Kind::kSpell,  Kind::kSpell,
          Kind::kSpell, Kind::kSpell, Kind::kSpell,
          block % 4 == 0 ? Kind::kApprox : Kind::kAuto};
}

/// One miss slot of a block: its kind and, per parameter, a draw in [0, 1)
/// stratified across the block's slots of that kind, so every block covers
/// the parameter ranges evenly and seeds differ only inside the strata.
struct Slot {
  Kind kind = Kind::kAuto;
  double size = 0.0;  ///< top-k rows, or SPELL query length
  double k = 0.0;
};

std::vector<Slot> make_block(std::size_t block, fv::Rng& rng) {
  std::vector<Kind> kinds = miss_block(block);
  rng.shuffle(kinds);
  std::vector<Slot> slots;
  for (const Kind kind : kinds) slots.push_back(Slot{kind, 0.0, 0.0});
  for (const bool spell : {false, true}) {
    std::vector<Slot*> group;
    for (Slot& slot : slots) {
      if ((slot.kind == Kind::kSpell) == spell) group.push_back(&slot);
    }
    std::vector<std::size_t> size_strata(group.size()), k_strata(group.size());
    for (std::size_t i = 0; i < group.size(); ++i) size_strata[i] = k_strata[i] = i;
    rng.shuffle(size_strata);
    rng.shuffle(k_strata);
    const double n = static_cast<double>(group.size());
    for (std::size_t i = 0; i < group.size(); ++i) {
      group[i]->size = (static_cast<double>(size_strata[i]) + rng.uniform()) / n;
      group[i]->k = (static_cast<double>(k_strata[i]) + rng.uniform()) / n;
    }
  }
  return slots;
}

std::string make_body(const Slot& slot, fv::Rng& rng,
                      const std::vector<std::string>& genes,
                      std::size_t cluster_index) {
  if (slot.kind == Kind::kCluster) {
    return std::string("{\"linkage\":\"") + kLinkages[cluster_index] +
           "\",\"type\":\"cluster\"}";
  }
  if (slot.kind == Kind::kSpell) {
    // 2-10 genes of one planted module, so the query has signal.
    const std::size_t module = rng.uniform_u64(kServeGenes / 250);
    const auto count = static_cast<std::size_t>(2 + 9 * slot.size);
    std::vector<std::size_t> picks =
        rng.sample_without_replacement(250, count);
    std::string body = "{\"query\":[";
    for (std::size_t i = 0; i < picks.size(); ++i) {
      body += (i ? ",\"" : "\"") + genes[module * 250 + picks[i]] + "\"";
    }
    return body + "],\"type\":\"spell\"}";
  }
  const auto k = static_cast<std::size_t>(5 + 46 * slot.k);
  const std::size_t min_common = rng.uniform_u64(9);
  // rows log-uniform in [16, 4000]: response bodies from KiB to MiB.
  const std::size_t rows = static_cast<std::size_t>(
      std::lround(16.0 * std::pow(4000.0 / 16.0, slot.size)));
  return "{\"k\":" + std::to_string(k) +
         ",\"min_common\":" + std::to_string(min_common) +
         ",\"rows\":" + std::to_string(rows) + ",\"strategy\":\"" +
         strategy_name(slot.kind) + "\",\"type\":\"topk\"}";
}

Traffic make_traffic(std::uint64_t seed, const std::vector<std::string>& genes,
                     Digest& digest) {
  Traffic traffic;
  traffic.ops.assign(kClients, {});
  fv::Rng rng(derive_seed(seed, 0x1111));
  std::set<std::string> seen;
  std::vector<Slot> block;
  std::size_t clusters = 0;
  const auto next_miss = [&]() -> std::uint32_t {
    const std::size_t m = traffic.keys.size();
    if (m % 12 == 0) block = make_block(m / 12, rng);
    Slot slot = block[m % 12];
    if (clusters < 3 && m == kClusterMissAt[clusters]) {
      slot.kind = Kind::kCluster;
    }
    std::string body = make_body(slot, rng, genes, clusters);
    while (!seen.insert(body).second) {
      // A repeated draw: redraw inside the same strata.
      slot.size = std::min(0.999, slot.size + 1e-3);
      body = make_body(slot, rng, genes, clusters);
    }
    if (slot.kind == Kind::kCluster) ++clusters;
    traffic.keys.push_back(Key{slot.kind, body});
    return static_cast<std::uint32_t>(m);
  };
  // Round-robin over clients in op order: op j of every client is "at the
  // same time", and a repeat picks a key generated before it. Repeats walk
  // a golden-ratio sequence over those keys (seeded start per client), so
  // every run repeats small and large results in the same proportions.
  std::vector<std::size_t> miss_slot(kClients);
  std::vector<double> repeat(kClients);
  for (double& r : repeat) r = rng.uniform();
  for (std::size_t j = 0; j < kOpsPerClient; ++j) {
    for (std::size_t c = 0; c < kClients; ++c) {
      if (j % 3 == 0) miss_slot[c] = rng.uniform_u64(3);
      if (j % 3 == miss_slot[c] || traffic.keys.empty()) {
        traffic.ops[c].push_back(next_miss());
        continue;
      }
      repeat[c] += 0.6180339887498949;
      repeat[c] -= std::floor(repeat[c]);
      traffic.ops[c].push_back(static_cast<std::uint32_t>(
          repeat[c] * static_cast<double>(traffic.keys.size())));
    }
  }
  for (const Key& key : traffic.keys) digest.add(key.body);
  for (const auto& ops : traffic.ops) {
    for (const std::uint32_t op : ops) digest.add(op);
  }
  return traffic;
}

enum class Outcome { kMiss, kHit, kDup };

struct KeyState {
  bool submitted = false;
  bool served = false;
  std::uint64_t hash = 0;
  double miss_ms = 0.0;  ///< round trip of the first (miss) submission
};

struct JobSample {
  Outcome outcome = Outcome::kMiss;
  double ms = 0.0;
  bool traced = false;
};

struct Params {
  std::size_t k = 0, min_common = 0;
  fv::sim::TopKStrategy strategy = fv::sim::TopKStrategy::kAuto;
  fv::cluster::Linkage linkage = fv::cluster::Linkage::kAverage;
  std::vector<std::string> query;
};

Params parse_params(const Key& key) {
  const sv::JsonValue body = sv::parse_json(key.body);
  Params p;
  if (key.kind == Kind::kSpell) {
    for (const auto& g : body.find("query")->items()) {
      p.query.push_back(g.as_string());
    }
  } else if (key.kind == Kind::kCluster) {
    const std::string& name = body.find("linkage")->as_string();
    p.linkage = name == "single"     ? fv::cluster::Linkage::kSingle
                : name == "complete" ? fv::cluster::Linkage::kComplete
                                     : fv::cluster::Linkage::kAverage;
  } else {
    p.k = static_cast<std::size_t>(body.find("k")->as_number());
    p.min_common = static_cast<std::size_t>(body.find("min_common")->as_number());
    p.strategy = key.kind == Kind::kPruned  ? fv::sim::TopKStrategy::kPruned
                 : key.kind == Kind::kExact  ? fv::sim::TopKStrategy::kExact
                 : key.kind == Kind::kApprox ? fv::sim::TopKStrategy::kApprox
                                             : fv::sim::TopKStrategy::kAuto;
  }
  return p;
}

const char* topk_span(Kind kind) {
  switch (kind) {
    case Kind::kPruned: return "sim.topk.pruned";
    case Kind::kExact: return "sim.topk.exact";
    case Kind::kApprox: return "sim.topk.approx";
    default: return "sim.topk.auto";
  }
}

/// Recomputes one miss key serially through public calls, under spans:
/// the replay gives sim, cluster, spell, json and store their numbers.
/// Returns the replayed compute time in ms.
double replay(const Key& key, const std::string& bytes, ServeWorld& world,
              fv::store::ArtifactStore& scratch, std::vector<double>& pruned,
              std::vector<double>& exact_dots) {
  const Params p = parse_params(key);
  const fv::sim::SimilarityEngine& engine = *world.compendium.engine;
  fv::par::ThreadPool& pool = *world.compute_pool;
  const std::int64_t start = now_ns();
  trace::Span root("replay.job");
  if (key.kind == Kind::kSpell) {
    trace::Span span("spell.search");
    (void)world.compendium.spell->search(p.query, fv::spell::SpellOptions{},
                                         pool);
  } else if (key.kind == Kind::kCluster) {
    fv::cluster::DistanceMatrix distances(engine.size());
    {
      trace::Span span("sim.condensed");
      engine.condensed_distances(distances.condensed(), pool);
    }
    const char* name = p.linkage == fv::cluster::Linkage::kSingle
                           ? "cluster.agglomerate.single"
                       : p.linkage == fv::cluster::Linkage::kComplete
                           ? "cluster.agglomerate.complete"
                           : "cluster.agglomerate.average";
    trace::Span span(name);
    (void)fv::cluster::agglomerate(std::move(distances), p.linkage);
  } else {
    if (key.kind == Kind::kApprox) {
      trace::Span span("sim.lsh_build");
      const fv::sim::LshIndex index(engine, fv::sim::LshParams{}, pool);
    }
    fv::sim::TopKStats stats;
    {
      trace::Span span(topk_span(key.kind));
      (void)engine.top_k_neighbors(p.k, pool, p.min_common, p.strategy,
                                   &stats);
    }
    if (stats.tiles_total > 0) {
      pruned.push_back(static_cast<double>(stats.tiles_pruned) /
                       static_cast<double>(stats.tiles_total));
    }
    exact_dots.push_back(stats.exact_dot_fraction);
  }
  {
    trace::Span span("json.encode");
    (void)sv::parse_json(bytes).dump();
  }
  {
    trace::Span span("store.put_blob");
    fv::store::put_blob(scratch, hash_bytes(key.body), bytes);
  }
  return ms_between(start, now_ns());
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

std::uint64_t directory_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

}  // namespace

void run_serve_mixed(const Args& args, Report& report) {
  std::unique_ptr<ServeWorld> world = set_up_serve(args, report);
  trace::set_thread_enabled(false);
  const std::uint16_t port = world->server->port();

  Digest digest;
  const Traffic traffic = make_traffic(args.seed, world->gene_names, digest);
  std::printf("traffic digest %s (%zu keys, %zu ops per client)\n",
              digest.hex().c_str(), traffic.keys.size(), kOpsPerClient);

  std::vector<std::string> sessions(kClients);
  for (auto& sid : sessions) {
    sid = json_string_field(http_call(port, "POST", "/sessions").body,
                            "session");
  }

  std::mutex state_mutex;
  std::vector<KeyState> state(traffic.keys.size());
  std::vector<std::vector<JobSample>> samples(kClients);
  std::vector<std::int64_t> client_end(kClients);
  const std::int64_t start = now_ns();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(args.seconds * 1e9);
  {
    std::vector<std::jthread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        const std::string jobs = "/sessions/" + sessions[c] + "/jobs";
        for (std::size_t j = 0; j < traffic.ops[c].size(); ++j) {
          if (now_ns() >= deadline) break;
          const std::uint32_t key = traffic.ops[c][j];
          const bool traced = args.trace && j % 2 == 1;
          trace::set_thread_enabled(traced);
          // Each request of the round trip is its own class; a failed step
          // ends the round trip.
          const char* step = "submit";
          report.attempt(step);
          try {
            const std::int64_t t0 = now_ns();
            const HttpReply submit =
                http_call(port, "POST", jobs, traffic.keys[key].body);
            if (submit.status != 200 && submit.status != 202) {
              report.fail(step, "answered " + std::to_string(submit.status));
              continue;
            }
            Outcome outcome = Outcome::kHit;
            {
              std::scoped_lock lock(state_mutex);
              if (!state[key].submitted) {
                state[key].submitted = true;
                outcome = Outcome::kMiss;
              } else if (submit.status == 202) {
                outcome = Outcome::kDup;
              }
            }
            const std::string job = jobs + "/" +
                                    json_string_field(submit.body, "job");
            report.attempt(step = "longpoll");
            const HttpReply status =
                http_call(port, "GET", job + "?wait_ms=60000");
            if (status.status != 200 ||
                json_string_field(status.body, "state") != "done") {
              report.fail(step, job + " not done");
              continue;
            }
            report.attempt(step = "result");
            const HttpReply result = http_call(port, "GET", job + "/result");
            const double ms = ms_between(t0, now_ns());
            if (result.status != 200) {
              report.fail(step, "answered " + std::to_string(result.status));
              continue;
            }
            const std::uint64_t hash = hash_bytes(result.body);
            {
              std::scoped_lock lock(state_mutex);
              KeyState& s = state[key];
              if (!s.served) {
                s.served = true;
                s.hash = hash;
              } else if (s.hash != hash) {
                report.fail(step, "bytes of key " + std::to_string(key) +
                                      " differ between responses");
              }
              if (outcome == Outcome::kMiss) s.miss_ms = ms;
            }
            samples[c].push_back(JobSample{outcome, ms, traced});
          } catch (const std::exception& error) {
            report.fail(step, error.what());
          }
        }
        trace::set_thread_enabled(false);
        client_end[c] = now_ns();
      });
    }
  }
  const double elapsed_s =
      static_cast<double>(*std::max_element(client_end.begin(),
                                            client_end.end()) -
                          start) /
      1e9;

  std::vector<double> miss, hit, dup, traced, untraced;
  for (const auto& client : samples) {
    for (const JobSample& s : client) {
      (s.outcome == Outcome::kMiss  ? miss
       : s.outcome == Outcome::kHit ? hit
                                    : dup)
          .push_back(s.ms);
      (s.traced ? traced : untraced).push_back(s.ms);
    }
  }
  const std::size_t completed = miss.size() + hit.size() + dup.size();
  const fv::serve::ServiceStats& stats = world->service->stats();
  const double submitted = static_cast<double>(stats.jobs_submitted.load());
  const double computes = static_cast<double>(stats.computes.load());
  std::printf("load: %.3f s, %zu round trips (%zu miss, %zu hit, %zu dup); "
              "service computes=%.0f cache_hits=%llu rejected=%llu\n",
              elapsed_s, completed, miss.size(), hit.size(), dup.size(),
              computes,
              static_cast<unsigned long long>(stats.cache_hits.load()),
              static_cast<unsigned long long>(stats.jobs_rejected.load()));

  // Correctness, outside the timed phase: every distinct key's bytes
  // against a single-user in-process reference service. The traced run
  // replays each miss key's compute right after its reference.
  std::vector<double> queue_ms, pruned, exact_dots, result_kib;
  std::size_t checked = 0;
  {
    std::unique_ptr<fv::store::ArtifactStore> scratch;
    if (args.trace) {
      scratch = std::make_unique<fv::store::ArtifactStore>(args.work_dir +
                                                           "/replay_store");
    }
    std::vector<std::size_t> served;
    for (std::size_t key = 0; key < state.size(); ++key) {
      if (state[key].served) served.push_back(key);
    }
    checked = served.size();
    for (std::size_t first = 0; first < served.size(); first += kMaxBatch) {
      const std::vector<std::size_t> batch(
          served.begin() + static_cast<long>(first),
          served.begin() +
              static_cast<long>(std::min(served.size(), first + kMaxBatch)));
      std::vector<std::string> bodies;
      for (const std::size_t key : batch) {
        bodies.push_back(traffic.keys[key].body);
      }
      try {
        // A fresh reference per batch: its cache would otherwise hold a
        // second copy of every result and inflate peak_rss_mib.
        sv::AnalysisService reference(world->compendium, *world->compute_pool);
        const std::vector<std::string> results =
            handle_jobs(reference, handle_session(reference), bodies);
        for (std::size_t i = 0; i < batch.size(); ++i) {
          const std::size_t key = batch[i];
          const std::string& bytes = results[i];
          result_kib.push_back(static_cast<double>(bytes.size()) / 1024.0);
          if (hash_bytes(bytes) != state[key].hash) {
            report.fail("reference", "key " + std::to_string(key) +
                                       " differs from the single-user "
                                       "reference");
          }
          if (!args.trace) continue;
          trace::set_thread_enabled(true);
          const double compute_ms = replay(traffic.keys[key], bytes, *world,
                                           *scratch, pruned, exact_dots);
          trace::set_thread_enabled(false);
          if (state[key].miss_ms > 0.0) {
            queue_ms.push_back(state[key].miss_ms - compute_ms);
          }
        }
      } catch (const std::exception& error) {
        report.fail("reference", error.what());
      }
    }
    if (args.trace) {
      report.layer("store.bytes_written",
                   static_cast<double>(
                       directory_bytes(args.work_dir + "/replay_store")),
                   "bytes");
    }
  }
  std::printf("checked %zu distinct keys against the single-user reference\n",
              checked);

  std::printf("serve_mixed end-to-end (4 clients, %.0f s):\n", args.seconds);
  print_percentile("miss_p50_ms", miss, 0.50);
  print_percentile("miss_p90_ms", miss, 0.90);
  print_percentile("hit_p50_ms", hit, 0.50);
  print_percentile("hit_p95_ms", hit, 0.95);
  print_percentile("dup_p50_ms", dup, 0.50);
  std::printf("  %-22s %12.4f ms  [n=%zu]\n", "miss_mean_ms", mean(miss),
              miss.size());
  std::printf("  %-22s %12.4f ms  [n=%zu]\n", "hit_mean_ms", mean(hit),
              hit.size());

  {
    // Miss round trips by job kind: where miss_p50 and miss_p90 come from.
    constexpr const char* kKindNames[] = {"auto", "pruned", "exact",
                                          "approx", "spell", "cluster"};
    std::vector<std::vector<double>> by_kind(6);
    for (std::size_t key = 0; key < state.size(); ++key) {
      if (state[key].miss_ms > 0.0) {
        by_kind[static_cast<int>(traffic.keys[key].kind)].push_back(
            state[key].miss_ms);
      }
    }
    std::printf("  miss p50 by kind:");
    for (int k = 0; k < 6; ++k) {
      std::printf(" %s %.1f ms (n=%zu)%s", kKindNames[k],
                  percentile(by_kind[k], 0.5), by_kind[k].size(),
                  k < 5 ? "," : "\n");
    }
  }
  const double jobs_per_s = static_cast<double>(completed) / elapsed_s;
  std::printf("  %-22s %12.4f 1/s  [n=%zu]\n", "jobs_per_s", jobs_per_s,
              completed);

  // Means, not medians: behind the serial listener a round trip is its own
  // compute plus whatever long-polls it queued behind, and the median of
  // that mixture moves with the clients' phase far more than its mean.
  report.end_to_end("latency_ms", mean(miss), "ms");
  report.end_to_end("tail_ms", percentile(miss, 0.90), "ms");
  report.end_to_end("aux_ms", mean(hit), "ms");
  report.end_to_end("throughput_per_s", jobs_per_s, "1/s");

  if (args.trace) {
    const auto spans = trace::spans();
    report_serve_layers(spans, report);
    const auto self = trace::self_ms(spans);
    const auto median = [&](const char* name) {
      const auto it = self.find(name);
      return it == self.end() ? 0.0 : percentile(it->second, 0.5);
    };
    for (const char* s : {"auto", "pruned", "exact", "approx"}) {
      report.layer(std::string("sim.topk_ms.") + s,
                   median((std::string("sim.topk.") + s).c_str()), "ms");
    }
    for (const char* l : kLinkages) {
      report.layer(std::string("cluster.agglomerate_ms.") + l,
                   median((std::string("cluster.agglomerate.") + l).c_str()),
                   "ms");
    }
    report.layer("sim.lsh_build_ms", median("sim.lsh_build"), "ms");
    report.layer("sim.condensed_ms", median("sim.condensed"), "ms");
    report.layer("sim.tiles_pruned_frac", mean(pruned), "ratio");
    report.layer("sim.exact_dot_fraction", mean(exact_dots), "ratio");
    report.layer("spell.search_ms", median("spell.search"), "ms");
    report.layer("json.encode_ms", median("json.encode"), "ms");
    report.layer("store.put_blob_ms", median("store.put_blob"), "ms");
    report.layer("service.queue_ms", percentile(queue_ms, 0.5), "ms");
    report.layer("service.hit_ratio",
                 submitted > 0 ? static_cast<double>(stats.cache_hits.load()) /
                                     submitted
                               : 0.0,
                 "ratio");
    report.layer("service.dup_computes",
                 computes - static_cast<double>(miss.size()), "count");
    report.layer("service.rejected",
                 static_cast<double>(stats.jobs_rejected.load()), "count");
    report.layer("json.result_kib", mean(result_kib), "KiB");
    report.layer("trace.overhead_frac", mean(traced) / mean(untraced) - 1.0,
                 "ratio");
  }
}

}  // namespace pb
