#include "serve_world.hpp"

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "expr/compendium_io.hpp"
#include "store/cached.hpp"
#include "util/rng.hpp"

namespace pb {

namespace fs = std::filesystem;
namespace sv = fv::serve;

namespace {

constexpr int kSetupReps = 5;

/// The bench_serve / bench_store generator with seeded noise: genes come
/// in modules of 250 that co-vary inside two of the six dataset blocks.
std::vector<fv::expr::Dataset> module_block_datasets(
    std::uint64_t seed, std::vector<std::string>& gene_names) {
  constexpr std::size_t kModuleSize = 250;
  const std::size_t blocks = kServeConditions / kServeBlockConditions;
  fv::Rng rng(derive_seed(seed, 0x5e7e));
  fv::expr::ExpressionMatrix m(kServeGenes, kServeConditions);
  for (std::size_t g = 0; g < kServeGenes; ++g) {
    const std::size_t module = g / kModuleSize;
    const std::size_t d0 = module % blocks;
    const std::size_t d1 = (module + 1 + module / blocks) % blocks;
    const double freq = 0.25 + 0.05 * static_cast<double>(module % 7);
    const double phase = 0.61 * static_cast<double>(module);
    for (std::size_t c = 0; c < kServeConditions; ++c) {
      const std::size_t block = c / kServeBlockConditions;
      double value = rng.normal(0.0, 0.05);
      if (block == d0 || block == d1) {
        value += std::sin(freq * static_cast<double>(c + 1) + phase);
      }
      m.set(g, c, static_cast<float>(value));
    }
  }
  gene_names.assign(kServeGenes, "");
  std::vector<fv::expr::GeneInfo> genes(kServeGenes);
  for (std::size_t g = 0; g < kServeGenes; ++g) {
    char name[16];
    std::snprintf(name, sizeof name, "G%05zu", g);
    gene_names[g] = name;
    genes[g] = fv::expr::GeneInfo{name, name, "synthetic"};
  }
  std::vector<fv::expr::Dataset> datasets;
  for (std::size_t b = 0; b < blocks; ++b) {
    fv::expr::ExpressionMatrix block(kServeGenes, kServeBlockConditions);
    std::vector<std::string> conditions;
    for (std::size_t c = 0; c < kServeBlockConditions; ++c) {
      const std::size_t col = b * kServeBlockConditions + c;
      conditions.push_back("cond" + std::to_string(col));
      for (std::size_t g = 0; g < kServeGenes; ++g) {
        block.set(g, c, m.at(g, col));
      }
    }
    datasets.emplace_back("block" + std::to_string(b), genes,
                          std::move(conditions), std::move(block));
  }
  return datasets;
}

/// The engine's input: the loaded blocks side by side again.
fv::expr::ExpressionMatrix full_matrix(
    const std::vector<fv::expr::Dataset>& blocks) {
  std::size_t cols = 0;
  for (const auto& d : blocks) cols += d.values().cols();
  const std::size_t rows = blocks.front().values().rows();
  fv::expr::ExpressionMatrix m(rows, cols);
  std::size_t offset = 0;
  for (const auto& d : blocks) {
    const auto& v = d.values();
    for (std::size_t g = 0; g < rows; ++g) {
      for (std::size_t c = 0; c < v.cols(); ++c) {
        m.set(g, offset + c, v.at(g, c));
      }
    }
    offset += v.cols();
  }
  return m;
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

/// The span name of the service call a request reaches.
const char* endpoint_span(const sv::HttpRequest& request) {
  if (request.path == "/healthz") return "service.handle.healthz";
  if (request.path == "/stats") return "service.handle.stats";
  std::size_t segments = 0;
  for (std::size_t i = 0; i < request.path.size(); ++i) {
    if (request.path[i] == '/' && i + 1 < request.path.size()) ++segments;
  }
  const bool select = request.path.ends_with("/select");
  switch (segments) {
    case 1: return "service.handle.session_create";
    case 2:
      return request.method == "DELETE" ? "service.handle.session_delete"
                                        : "service.handle.session_get";
    case 3: return select ? "service.handle.select" : "service.handle.submit";
    case 4:
      return request.query.count("wait_ms") != 0 ? "service.longpoll"
                                                 : "service.handle.status";
    case 5: return "service.handle.result";
    default: return "service.handle.other";
  }
}

std::uint64_t header_u64(const sv::HttpRequest& request, const char* name) {
  const auto it = request.headers.find(name);
  return it == request.headers.end()
             ? 0
             : std::strtoull(it->second.c_str(), nullptr, 10);
}

/// Seconds each set-up phase took (the traced run also records spans).
struct SetupTimes {
  double synth_s = 0.0;
  double load_s = 0.0;  ///< PCL save + load_compendium_dir
  double cold_build_s = 0.0;
  double warm_open_ms = 0.0;
  double total_s = 0.0;
};

std::unique_ptr<ServeWorld> build_serve_world(
    const std::string& dir, std::uint64_t seed, SetupTimes& times,
    const std::function<void(ServeWorld&)>& prime) {
  const std::int64_t start = now_ns();
  trace::Span setup_span("setup");
  fs::remove_all(dir);
  fs::create_directories(dir);
  auto world = std::make_unique<ServeWorld>();

  std::vector<fv::expr::Dataset> blocks;
  {
    trace::Span span("expr.synth");
    const std::int64_t t = now_ns();
    blocks = module_block_datasets(seed, world->gene_names);
    times.synth_s = seconds_since(t);
  }
  std::shared_ptr<const std::vector<fv::expr::Dataset>> datasets;
  {
    trace::Span span("expr.load");
    const std::int64_t t = now_ns();
    fv::expr::save_compendium_dir(blocks, dir + "/pcl");
    datasets = std::make_shared<const std::vector<fv::expr::Dataset>>(
        fv::expr::load_compendium_dir(dir + "/pcl"));
    times.load_s = seconds_since(t);
  }
  blocks.clear();
  const fv::expr::ExpressionMatrix matrix = full_matrix(*datasets);
  const fv::store::ArtifactKey input_key = fv::store::matrix_key(matrix);

  world->compute_pool = std::make_unique<fv::par::ThreadPool>();
  world->store = std::make_unique<fv::store::ArtifactStore>(dir + "/store");
  const auto open = [&] {
    return sv::open_shared_compendium(
        *world->store, input_key, [&] { return matrix; }, datasets,
        fv::sim::Metric::kPearson, *world->compute_pool);
  };
  {
    trace::Span span("store.cold_build");
    const std::int64_t t = now_ns();
    const sv::SharedCompendium cold = open();
    times.cold_build_s = seconds_since(t);
  }
  {
    trace::Span span("store.warm_open");
    const std::int64_t t = now_ns();
    world->compendium = open();
    times.warm_open_ms = seconds_since(t) * 1e3;
  }
  {
    trace::Span span("setup.server_start");
    sv::AnalysisService::Options options;
    options.store = world->store.get();
    world->service = std::make_unique<sv::AnalysisService>(
        world->compendium, *world->compute_pool, options);
    sv::AnalysisService& service = *world->service;
    world->server = std::make_unique<sv::HttpServer>(
        [&service](const sv::HttpRequest& request) {
          // The handler wrapper: adopts the client's span from the header
          // and times the service call under it.
          trace::adopt(header_u64(request, "x-fv-span"),
                       header_u64(request, "x-fv-request"));
          sv::HttpResponse response;
          {
            trace::Span span(trace::thread_enabled() ? endpoint_span(request)
                                                     : "");
            response = service.handle(request);
          }
          trace::adopt(0, 0);
          return response;
        });
  }
  if (prime) {
    trace::Span span("setup.prime");
    prime(*world);
  }
  times.total_s = seconds_since(start);
  return world;
}

}  // namespace

ServeWorld::~ServeWorld() {
  if (server != nullptr) server->stop();
  server.reset();
  service.reset();
}

std::unique_ptr<ServeWorld> set_up_serve(
    const Args& args, Report& report,
    const std::function<void(ServeWorld&)>& prime) {
  std::vector<double> total, synth, load, cold, warm;
  std::unique_ptr<ServeWorld> world;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    world.reset();  // the previous world's files go before the next build
    SetupTimes times;
    world = build_serve_world(args.work_dir + "/world", args.seed, times,
                              prime);
    total.push_back(times.total_s);
    synth.push_back(times.synth_s);
    load.push_back(times.load_s);
    cold.push_back(times.cold_build_s);
    warm.push_back(times.warm_open_ms);
  }
  std::printf("setup: %d reps, median %.4f s (cold build %.4f s, warm open "
              "%.3f ms)\n",
              kSetupReps, percentile(total, 0.5), percentile(cold, 0.5),
              percentile(warm, 0.5));
  report.end_to_end("setup_s", percentile(total, 0.5), "s");
  report.layer("expr.synth_s", percentile(synth, 0.5), "s");
  report.layer("expr.load_s", percentile(load, 0.5), "s");
  report.layer("store.cold_build_s", percentile(cold, 0.5), "s");
  report.layer("store.warm_open_ms", percentile(warm, 0.5), "ms");
  return world;
}

HttpReply http_call(std::uint16_t port, const char* method,
                    const std::string& target, const std::string& body) {
  std::string raw;
  std::string reply;
  {
    trace::Span root("http.request");
    raw.reserve(160 + body.size());
    raw += method;
    raw += ' ';
    raw += target;
    raw += " HTTP/1.1\r\nHost: 127.0.0.1\r\nX-Fv-Span: ";
    raw += std::to_string(root.id());
    raw += "\r\nX-Fv-Request: ";
    raw += std::to_string(root.id() != 0 ? trace::begin_request() : 0);
    raw += "\r\nContent-Length: ";
    raw += std::to_string(body.size());
    raw += "\r\n\r\n";
    raw += body;
    reply = sv::http_exchange(port, raw);
  }
  HttpReply out;
  const std::size_t header_end = reply.find("\r\n\r\n");
  if (reply.compare(0, 9, "HTTP/1.1 ") != 0 ||
      header_end == std::string::npos) {
    throw fv::ParseError("malformed HTTP response (" +
                         std::to_string(reply.size()) + " bytes)");
  }
  out.status = std::atoi(reply.c_str() + 9);
  out.body = reply.substr(header_end + 4);
  const std::size_t length_at = reply.find("Content-Length: ");
  if (length_at == std::string::npos || length_at > header_end ||
      std::strtoull(reply.c_str() + length_at + 16, nullptr, 10) !=
          out.body.size()) {
    throw fv::ParseError("response body length differs from Content-Length");
  }
  if (trace::thread_enabled()) {
    // The parse and format layers, timed on the captured bytes.
    std::int64_t t = now_ns();
    (void)sv::parse_http_request(raw);
    trace::value("http.parse_us", static_cast<double>(now_ns() - t) / 1e3);
    sv::HttpResponse response;
    response.status = out.status;
    response.body = out.body;
    t = now_ns();
    (void)sv::format_http_response(response);
    trace::value("http.format_us", static_cast<double>(now_ns() - t) / 1e3);
    trace::value("http.response_kib", static_cast<double>(reply.size()) / 1024.0);
    if (!body.empty()) {
      t = now_ns();
      (void)sv::parse_json(body);
      trace::value("json.parse_us", static_cast<double>(now_ns() - t) / 1e3);
    }
  }
  return out;
}

std::string json_string_field(const std::string& body, const char* key) {
  const sv::JsonValue parsed = sv::parse_json(body);
  const sv::JsonValue* field = parsed.find(key);
  return field != nullptr && field->type() == sv::JsonValue::Type::kString
             ? field->as_string()
             : std::string();
}

std::string handle_session(sv::AnalysisService& service) {
  sv::HttpRequest request;
  request.method = "POST";
  request.path = "/sessions";
  const sv::HttpResponse response = service.handle(request);
  if (response.status != 201) {
    throw fv::LogicError("session create answered " +
                         std::to_string(response.status));
  }
  return json_string_field(response.body, "session");
}

std::vector<std::string> handle_jobs(sv::AnalysisService& service,
                                     const std::string& session,
                                     const std::vector<std::string>& bodies) {
  const std::string jobs = "/sessions/" + session + "/jobs";
  std::vector<std::string> ids;
  for (const std::string& body : bodies) {
    sv::HttpRequest submit;
    submit.method = "POST";
    submit.path = jobs;
    submit.body = body;
    const sv::HttpResponse accepted = service.handle(submit);
    if (accepted.status != 200 && accepted.status != 202) {
      throw fv::LogicError("submit answered " +
                           std::to_string(accepted.status) + ": " +
                           accepted.body);
    }
    ids.push_back(json_string_field(accepted.body, "job"));
  }
  std::vector<std::string> results;
  for (const std::string& id : ids) {
    service.wait_job(id, std::chrono::minutes(1));
    sv::HttpRequest fetch;
    fetch.method = "GET";
    fetch.path = jobs + "/" + id + "/result";
    sv::HttpResponse result = service.handle(fetch);
    if (result.status != 200) {
      throw fv::LogicError("result answered " + std::to_string(result.status) +
                           ": " + result.body);
    }
    results.push_back(std::move(result.body));
  }
  return results;
}

void report_serve_layers(const std::vector<trace::SpanRecord>& spans,
                         Report& report) {
  std::map<std::uint64_t, const trace::SpanRecord*> by_id;
  for (const auto& s : spans) by_id[s.id] = &s;
  std::vector<double> accept_wait, write;
  for (const auto& s : spans) {
    const auto parent = by_id.find(s.parent);
    if (parent == by_id.end()) continue;
    const trace::SpanRecord& root = *parent->second;
    if (std::string_view(root.name) != "http.request") continue;
    accept_wait.push_back(ms_between(root.start_ns, s.start_ns));
    write.push_back(ms_between(s.end_ns, root.end_ns));
  }
  report.layer("http.accept_wait_ms.p50", percentile(accept_wait, 0.5), "ms");
  report.layer("http.accept_wait_ms.p99", percentile(accept_wait, 0.99), "ms");
  report.layer("http.write_ms", percentile(write, 0.5), "ms");

  const auto values = trace::values();
  const auto median_of = [&](const char* name) {
    const auto it = values.find(name);
    return it == values.end() ? 0.0 : percentile(it->second, 0.5);
  };
  report.layer("http.parse_us", median_of("http.parse_us"), "us");
  report.layer("http.format_us", median_of("http.format_us"), "us");
  report.layer("json.parse_us", median_of("json.parse_us"), "us");
  double kib = 0.0;
  if (const auto it = values.find("http.response_kib"); it != values.end()) {
    for (const double v : it->second) kib += v;
    kib /= static_cast<double>(it->second.size());
  }
  report.layer("http.response_kib", kib, "KiB");

  const auto self = trace::self_ms(spans);
  const auto self_median = [&](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : percentile(it->second, 0.5);
  };
  for (const char* endpoint :
       {"submit", "status", "result", "session_create", "session_get",
        "select", "session_delete", "healthz", "stats"}) {
    report.layer(std::string("service.handle_us.") + endpoint,
                 self_median(std::string("service.handle.") + endpoint) * 1e3,
                 "us");
  }
  report.layer("service.longpoll_ms", self_median("service.longpoll"), "ms");
}

}  // namespace pb
