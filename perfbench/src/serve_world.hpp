// The served world of the serve_* workloads, wired the way
// `fv_serve --store` wires it: open_shared_compendium feeds an
// AnalysisService (Options::store set) served by an HttpServer on loopback
// with default Options. Clients speak real HTTP through
// serve::http_exchange.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "par/thread_pool.hpp"
#include "serve/http.hpp"
#include "serve/service.hpp"
#include "store/artifact_store.hpp"

namespace pb {

/// 4000 genes x 96 conditions, module-block structure: the engine covers
/// the full matrix, the SPELL banks its six 16-condition dataset blocks.
inline constexpr std::size_t kServeGenes = 4000;
inline constexpr std::size_t kServeConditions = 96;
inline constexpr std::size_t kServeBlockConditions = 16;

struct ServeWorld {
  std::vector<std::string> gene_names;
  std::unique_ptr<fv::par::ThreadPool> compute_pool;
  std::unique_ptr<fv::store::ArtifactStore> store;
  fv::serve::SharedCompendium compendium;
  std::unique_ptr<fv::serve::AnalysisService> service;
  std::unique_ptr<fv::serve::HttpServer> server;

  ServeWorld() = default;
  ServeWorld(const ServeWorld&) = delete;
  ServeWorld& operator=(const ServeWorld&) = delete;
  /// Stops the server before the service it calls is destroyed.
  ~ServeWorld();
};

/// Builds a fresh world under Args::work_dir several times and keeps the
/// last: synthesis, PCL save and load, a cold open_shared_compendium into
/// an empty store, a mapped reopen, server start, and `prime` when set
/// (cache priming belongs to set-up). Reports the median set-up time as
/// setup_s, and the set-up layers.
std::unique_ptr<ServeWorld> set_up_serve(
    const Args& args, Report& report,
    const std::function<void(ServeWorld&)>& prime = nullptr);

struct HttpReply {
  int status = 0;
  std::string body;
};

/// One request over a fresh loopback connection. When tracing is on for
/// the calling thread the request is a root span, its id travels in the
/// X-Fv-Span header, and the handler wrapper records under it. Throws
/// fv::IoError on a socket failure and fv::ParseError on a malformed
/// response.
HttpReply http_call(std::uint16_t port, const char* method,
                    const std::string& target, const std::string& body = "");

/// A JSON string field of a response body; empty when absent.
std::string json_string_field(const std::string& body, const char* key);

/// Runs `bodies` as jobs of one session through AnalysisService::handle,
/// all submitted before the first wait, and returns the result bytes in
/// order. At most kMaxBatch bodies, the service's default admission bound.
/// Waits at most a minute per job; throws fv::Error on failure.
inline constexpr std::size_t kMaxBatch = 8;
std::vector<std::string> handle_jobs(fv::serve::AnalysisService& service,
                                     const std::string& session,
                                     const std::vector<std::string>& bodies);

/// Creates a session through AnalysisService::handle.
std::string handle_session(fv::serve::AnalysisService& service);

/// Per-layer numbers of the HTTP and service layers from the traced run's
/// spans and values (shared by both serve workloads).
void report_serve_layers(const std::vector<trace::SpanRecord>& spans,
                         Report& report);

}  // namespace pb
