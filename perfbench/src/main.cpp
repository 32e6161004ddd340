// fv_perfbench — the end-to-end benchmark program.
//
//   fv_perfbench --workload serve_mixed|serve_hot|session_frames
//                --seed N --seconds S --trace 0|1 --work-dir DIR
//                [--trace-dir DIR]
//
// Prints human-readable numbers with sample counts, then, as its last
// line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end set, measured with
// tracing off; with --trace 1 they are the per-layer set, taken from spans
// the benchmark records around its calls into the program.
#include <malloc.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "serve/json.hpp"
#include "workloads.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: fv_perfbench --workload serve_mixed|serve_hot|"
               "session_frames --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--trace-dir DIR]\n");
}

bool parse_args(int argc, char** argv, pb::Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && !args.work_dir.empty() &&
         args.seconds > 0.0;
}

}  // namespace

namespace pb {

void finish_trace(const Args& args, Report& report) {
  const auto spans = trace::spans();
  const double unattributed = trace::unattributed_frac(spans);
  report.layer("trace.unattributed_frac", unattributed, "ratio");
  std::printf("trace: %zu spans, unattributed %.4f, overhead %.4f\n",
              spans.size(), unattributed,
              report.layers().count("trace.overhead_frac")
                  ? report.layers().at("trace.overhead_frac").value
                  : 0.0);
  if (args.trace_dir.empty()) return;
  std::filesystem::create_directories(args.trace_dir);
  const std::string path = args.trace_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".jsonl";
  if (trace::write_jsonl(spans, path)) {
    std::printf("trace written to %s\n", path.c_str());
  } else {
    report.fail("trace", "cannot write the trace file " + path);
  }
}

}  // namespace pb

int main(int argc, char** argv) {
  pb::Args args;
  if (!parse_args(argc, argv, args)) {
    usage();
    return 2;
  }
  // glibc raises its mmap threshold (128 KiB at start) each time a larger
  // mmapped block is freed. When in a run that happens, and in which
  // thread's arena the large blocks then land, set serve_hot's peak RSS
  // more than the program did: 156-246 MiB across seeds. Fixing the
  // threshold at its start value keeps large blocks mmapped, so peak RSS
  // tracks live memory (within 3% across seeds).
  if (mallopt(M_MMAP_THRESHOLD, 128 << 10) != 1) {
    std::fprintf(stderr, "fv_perfbench: cannot set M_MMAP_THRESHOLD\n");
    return 1;
  }
  namespace fs = std::filesystem;
  pb::Report report;
  try {
    fs::remove_all(args.work_dir);
    fs::create_directories(args.work_dir);
    pb::trace::set_thread_enabled(args.trace);
    if (args.workload == "serve_mixed") {
      pb::run_serve_mixed(args, report);
    } else if (args.workload == "serve_hot") {
      pb::run_serve_hot(args, report);
    } else if (args.workload == "session_frames") {
      pb::run_session_frames(args, report);
    } else {
      usage();
      return 2;
    }
    if (args.trace) pb::finish_trace(args, report);
    fs::remove_all(args.work_dir);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fv_perfbench: %s\n", error.what());
    return 1;
  }

  const std::uint64_t attempted = report.attempted();
  const std::uint64_t failed = report.failed();
  for (const auto& [cls, counts] : report.classes()) {
    std::printf("  class %-16s attempted %10llu  failed %llu\n", cls.c_str(),
                static_cast<unsigned long long>(counts.first),
                static_cast<unsigned long long>(counts.second));
  }
  for (const std::string& what : report.failures()) {
    std::fprintf(stderr, "fv_perfbench: FAILED %s\n", what.c_str());
  }
  const double failed_frac =
      attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted)
                    : 1.0;
  std::printf("  %-22s %12.4f ratio  [attempted=%llu, failed=%llu]\n",
              "failed_frac", failed_frac,
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  std::printf("  %-22s %12.4f MiB\n", "peak_rss_mib", pb::peak_rss_mib());
  report.end_to_end("peak_rss_mib", pb::peak_rss_mib(), "MiB");
  report.end_to_end("success_frac", 1.0 - failed_frac, "ratio");

  fv::serve::JsonValue metrics = fv::serve::JsonValue::object();
  for (const auto& [name, v] :
       args.trace ? report.layers() : report.end_to_end()) {
    fv::serve::JsonValue m = fv::serve::JsonValue::object();
    m["value"] = v.value;
    m["unit"] = v.unit;
    metrics[name] = std::move(m);
  }
  fv::serve::JsonValue out = fv::serve::JsonValue::object();
  out["correct"] = failed == 0 && attempted > 0;
  out["attempted"] = static_cast<std::size_t>(attempted);
  out["failed"] = static_cast<std::size_t>(failed);
  out["metrics"] = std::move(metrics);
  std::printf("%s\n", out.dump().c_str());
  return 0;
}
