// session_frames: one analyst's paper workflow, action in, frame out.
//
// The fig6 compendium (800-gene yeast-like genome, 12 datasets, synthetic
// GO ontology) in one closed loop. Every seeded action is followed by a
// 1600x1200 desktop frame; every kWallEvery-th action also renders the
// display wall (12 tiles of 512x384, broadcast distribution).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "core/adapters.hpp"
#include "core/app.hpp"
#include "expr/compendium_io.hpp"
#include "expr/synth.hpp"
#include "go/synth_ontology.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

namespace fs = std::filesystem;
namespace co = fv::core;

constexpr int kSetupReps = 9;
constexpr std::size_t kWallEvery = 8;
constexpr std::size_t kDigestCycles = 512;
const fv::wall::WallSpec kWall{4, 3, 512, 384};

enum class Kind {
  kSelectRegion, kSelectByNames, kSpell, kGolem, kScroll, kToggleSync,
  kOrderPanes
};
constexpr Kind kKinds[] = {Kind::kSelectRegion, Kind::kSelectByNames,
                           Kind::kSpell,        Kind::kGolem,
                           Kind::kScroll,       Kind::kToggleSync,
                           Kind::kOrderPanes};
/// The span of each action kind, which names its core.action_ms metric.
constexpr const char* kSpans[] = {
    "core.select_region", "core.select_by_names", "core.apply_spell_search",
    "core.run_golem_on_selection", "core.scroll_to", "core.toggle_sync",
    "core.order_panes"};

struct Action {
  Kind kind = Kind::kToggleSync;
  std::size_t dataset = 0, first = 0, count = 0;
  double fraction = 0.0;  ///< scroll position as a share of the selection
  std::vector<std::string> names;
  std::vector<std::size_t> order;
};

struct World {
  std::unique_ptr<fv::expr::Compendium> compendium;
  std::unique_ptr<fv::go::SynthOntology> ontology;
  std::vector<fv::expr::Dataset> datasets;  ///< as loaded from PCL
};

World build_world(const std::string& dir, std::uint64_t seed,
                  double& synth_s, double& load_s) {
  fs::remove_all(dir);
  World world;
  {
    trace::Span span("expr.synth");
    const std::int64_t t = now_ns();
    fv::expr::CompendiumSpec spec;
    spec.genome = fv::expr::GenomeSpec::yeast_like(800);
    spec.stress_datasets = 4;
    spec.nutrient_datasets = 4;
    spec.knockout_datasets = 2;
    spec.noise_datasets = 2;
    spec.seed = derive_seed(seed, 0x6000);
    world.compendium = std::make_unique<fv::expr::Compendium>(
        fv::expr::make_compendium(spec));
    fv::go::SynthOntologySpec go_spec;
    go_spec.seed = derive_seed(seed, 0x6001);
    world.ontology = std::make_unique<fv::go::SynthOntology>(
        fv::go::make_synth_ontology(world.compendium->genome, go_spec));
    synth_s = static_cast<double>(now_ns() - t) / 1e9;
  }
  {
    trace::Span span("expr.load");
    const std::int64_t t = now_ns();
    fv::expr::save_compendium_dir(world.compendium->datasets, dir);
    world.datasets = fv::expr::load_compendium_dir(dir);
    load_s = static_cast<double>(now_ns() - t) / 1e9;
  }
  return world;
}

/// Point `cycle` of a golden-ratio sequence with a seeded start: the sizes
/// that set an action's and a frame's cost cover their range evenly over
/// any run of cycles, so seeds differ in which genes, not in how many.
double spread_draw(std::uint64_t seed, std::uint64_t stream, std::size_t cycle) {
  const double start =
      static_cast<double>(derive_seed(seed, stream) >> 11) * 0x1.0p-53;
  const double x = start + 0.6180339887498949 * static_cast<double>(cycle);
  return x - std::floor(x);
}

/// Cycle `cycle` of the action sequence: the seven kinds in a seeded order.
std::vector<Action> make_cycle(std::uint64_t seed, std::size_t cycle,
                               const World& world) {
  fv::Rng rng(derive_seed(seed, 0x7000000 + cycle));
  std::vector<Kind> kinds(std::begin(kKinds), std::end(kKinds));
  rng.shuffle(kinds);
  const fv::expr::SynthGenome& genome = world.compendium->genome;
  std::vector<Action> actions;
  for (const Kind kind : kinds) {
    Action a;
    a.kind = kind;
    switch (kind) {
      case Kind::kSelectRegion:
        a.dataset = rng.uniform_u64(world.datasets.size());
        a.first = rng.uniform_u64(world.datasets[a.dataset].values().rows());
        a.count = 10 + static_cast<std::size_t>(
                           51 * spread_draw(seed, 0x7100, cycle));
        break;
      case Kind::kSelectByNames:
        for (auto n = static_cast<std::size_t>(
                 5 + 36 * spread_draw(seed, 0x7200, cycle));
             n > 0; --n) {
          a.names.push_back(
              genome.gene(rng.uniform_u64(genome.gene_count()))
                  .systematic_name);
        }
        break;
      case Kind::kSpell: {
        const auto& modules = genome.module_names();
        const auto members =
            genome.module_members(modules[rng.uniform_u64(modules.size())]);
        const std::size_t n = std::min<std::size_t>(
            members.size(), 3 + static_cast<std::size_t>(
                                    4 * spread_draw(seed, 0x7300, cycle)));
        for (const std::size_t i :
             rng.sample_without_replacement(members.size(), n)) {
          a.names.push_back(genome.gene(members[i]).systematic_name);
        }
        break;
      }
      case Kind::kScroll: a.fraction = rng.uniform(); break;
      case Kind::kOrderPanes:
        for (std::size_t d = 0; d < world.datasets.size(); ++d) {
          a.order.push_back(d);
        }
        rng.shuffle(a.order);
        break;
      default: break;
    }
    actions.push_back(std::move(a));
  }
  return actions;
}

void apply(const Action& a, co::Session& session, const World& world) {
  switch (a.kind) {
    case Kind::kSelectRegion:
      session.select_region(a.dataset, a.first, a.count);
      break;
    case Kind::kSelectByNames: session.select_by_names(a.names); break;
    case Kind::kSpell: (void)co::apply_spell_search(session, a.names, 20); break;
    case Kind::kGolem:
      (void)co::run_golem_on_selection(session, world.ontology->propagated);
      break;
    case Kind::kScroll:
      session.scroll_to(static_cast<std::size_t>(
          a.fraction * static_cast<double>(session.selection().size())));
      break;
    case Kind::kToggleSync: session.toggle_sync(); break;
    case Kind::kOrderPanes: session.order_panes(a.order); break;
  }
}

/// Streams the action sequence cycle by cycle.
class Actions {
 public:
  Actions(std::uint64_t seed, const World& world) : seed_(seed), world_(world) {}
  const Action& at(std::size_t i) {
    while (i >= base_ + cycle_.size()) {
      base_ += cycle_.size();
      cycle_ = make_cycle(seed_, next_++, world_);
    }
    return cycle_[i - base_];
  }

 private:
  std::uint64_t seed_;
  const World& world_;
  std::size_t next_ = 0;
  std::size_t base_ = 0;
  std::vector<Action> cycle_;
};

std::uint64_t frame_hash(const fv::render::Framebuffer& fb) {
  const auto& px = fb.pixels();
  return hash_bytes(std::string_view(reinterpret_cast<const char*>(px.data()),
                                     px.size() * sizeof(px[0])));
}

co::FrameConfig wall_config() {
  co::FrameConfig config;
  config.width = static_cast<long>(kWall.total_width());
  config.height = static_cast<long>(kWall.total_height());
  return config;
}

}  // namespace

void run_session_frames(const Args& args, Report& report) {
  std::vector<double> total, synth, load;
  World world;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t = now_ns();
    trace::Span span("setup");
    double synth_s = 0.0, load_s = 0.0;
    world = build_world(args.work_dir + "/pcl", args.seed, synth_s, load_s);
    total.push_back(static_cast<double>(now_ns() - t) / 1e9);
    synth.push_back(synth_s);
    load.push_back(load_s);
  }
  co::Session session(world.datasets);
  co::ForestViewApp app(&session);
  std::printf("setup: %d reps, median %.4f s\n", kSetupReps,
              percentile(total, 0.5));
  report.end_to_end("setup_s", percentile(total, 0.5), "s");
  report.layer("expr.synth_s", percentile(synth, 0.5), "s");
  report.layer("expr.load_s", percentile(load, 0.5), "s");
  trace::set_thread_enabled(false);

  Digest digest;
  for (std::size_t cycle = 0; cycle < kDigestCycles; ++cycle) {
    for (const Action& a : make_cycle(args.seed, cycle, world)) {
      digest.add(static_cast<std::uint64_t>(a.kind));
      digest.add(a.dataset ^ a.first << 20 ^ a.count << 40);
      digest.add(std::to_string(a.fraction));
      for (const auto& n : a.names) digest.add(n);
      for (const auto d : a.order) digest.add(d);
    }
  }
  std::printf("action digest %s\n", digest.hex().c_str());

  Actions actions(args.seed, world);
  co::FrameConfig desktop;
  desktop.width = 1600;
  desktop.height = 1200;
  std::vector<double> frames, walls, traced, untraced, raster_ms,
      distribute_ms, cull, bytes;
  std::vector<std::pair<std::size_t, std::uint64_t>> wall_hashes;
  std::size_t done = 0;
  const std::int64_t start = now_ns();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(args.seconds * 1e9);
  for (std::size_t i = 0; now_ns() < deadline; ++i) {
    const Action& action = actions.at(i);
    const bool on = args.trace && i % 2 == 1;
    const char* step = "action";
    report.attempt(step);
    try {
      trace::set_thread_enabled(on);
      const std::int64_t t0 = now_ns();
      {
        trace::Span root("frame.action");
        {
          trace::Span span(kSpans[static_cast<int>(action.kind)]);
          apply(action, session, world);
        }
        trace::Span span("render.desktop");
        const fv::render::Framebuffer fb = app.render_desktop(desktop);
      }
      const double ms = ms_between(t0, now_ns());
      trace::set_thread_enabled(false);
      frames.push_back(ms);
      if (args.trace) (on ? traced : untraced).push_back(ms);
      done = i + 1;
      if (done % kWallEvery != 0) continue;

      report.attempt(step = "wall");
      fv::wall::FrameResult wall;
      if (on) {
        // The traced run splits the wall frame into its two public calls.
        trace::set_thread_enabled(true);
        trace::Span root("frame.wall");
        fv::wall::CommandList commands;
        {
          trace::Span span("wall.record");
          commands = app.record_frame(wall_config());
        }
        trace::Span span("wall.frame");
        wall = fv::wall::render_wall_frame(commands, kWall);
      } else {
        const std::int64_t w0 = now_ns();
        co::WallRender render = app.render_wall(kWall);
        walls.push_back(ms_between(w0, now_ns()));
        wall.frame = std::move(render.frame);
        wall.stats = render.stats;
      }
      trace::set_thread_enabled(false);
      const fv::wall::FrameStats& s = wall.stats;
      raster_ms.push_back(s.max_node_render_seconds * 1e3);
      distribute_ms.push_back((s.total_seconds - s.max_node_render_seconds) *
                              1e3);
      cull.push_back(1.0 - static_cast<double>(s.commands_executed) /
                               static_cast<double>(s.commands_total *
                                                   kWall.tile_count()));
      bytes.push_back(static_cast<double>(s.bytes_distributed));
      wall_hashes.emplace_back(i, frame_hash(wall.frame));
    } catch (const std::exception& error) {
      trace::set_thread_enabled(false);
      report.fail(step, error.what());
    }
  }
  const double elapsed_s = static_cast<double>(now_ns() - start) / 1e9;

  // Correctness, outside the timed phase: replay the same actions on a
  // fresh session and check every wall frame against render_reference.
  {
    co::Session replay(world.datasets);
    co::ForestViewApp replay_app(&replay);
    Actions again(args.seed, world);
    std::size_t next = 0;
    for (std::size_t i = 0; i < done && next < wall_hashes.size(); ++i) {
      try {
        apply(again.at(i), replay, world);
      } catch (const std::exception&) {
        // The timed loop already counted this action's failure.
      }
      if (i != wall_hashes[next].first) continue;
      const fv::wall::CommandList commands =
          replay_app.record_frame(wall_config());
      const std::uint64_t reference = frame_hash(fv::wall::render_reference(
          commands, kWall.total_width(), kWall.total_height()));
      if (reference != wall_hashes[next].second) {
        report.fail("wall", "frame after action " + std::to_string(i) +
                    " differs from render_reference");
      }
      ++next;
    }
    std::printf("checked %zu wall frames against render_reference\n", next);
  }

  const double frames_per_s = static_cast<double>(frames.size()) / elapsed_s;
  std::printf("session_frames end-to-end (1 analyst, %.0f s):\n", args.seconds);
  print_percentile("frame_p50_ms", frames, 0.50);
  print_percentile("frame_p90_ms", frames, 0.90);
  print_percentile("frame_p95_ms", frames, 0.95);
  print_percentile("wall_frame_p50_ms", walls, 0.50);
  std::printf("  %-22s %12.4f 1/s  [n=%zu]\n", "frames_per_s", frames_per_s,
              frames.size());

  report.end_to_end("latency_ms", percentile(frames, 0.50), "ms");
  // p90, not p95: a run fits about 190 desktop frames next to its wall
  // frames, too few for ten samples beyond p95.
  report.end_to_end("tail_ms", percentile(frames, 0.90), "ms");
  report.end_to_end("aux_ms", percentile(walls, 0.50), "ms");
  report.end_to_end("throughput_per_s", frames_per_s, "1/s");

  if (args.trace) {
    const auto self = trace::self_ms(trace::spans());
    const auto median = [&](const char* name) {
      const auto it = self.find(name);
      return it == self.end() ? 0.0 : percentile(it->second, 0.5);
    };
    for (const char* span : kSpans) {
      report.layer(std::string("core.action_ms.") + (span + 5), median(span),
                   "ms");
    }
    report.layer("go.enrich_ms", median("core.run_golem_on_selection"), "ms");
    report.layer("spell.apply_ms", median("core.apply_spell_search"), "ms");
    const double desktop_ms = median("render.desktop");
    report.layer("render.desktop_ms", desktop_ms, "ms");
    report.layer("render.mpix_per_s",
                 desktop_ms > 0.0 ? 1600.0 * 1200.0 / 1e6 / (desktop_ms / 1e3)
                                  : 0.0,
                 "Mpix/s");
    report.layer("wall.record_ms", median("wall.record"), "ms");
    report.layer("wall.frame_ms", median("wall.frame"), "ms");
    report.layer("wall.node_raster_ms", percentile(raster_ms, 0.5), "ms");
    report.layer("wall.distribute_ms", percentile(distribute_ms, 0.5), "ms");
    double sum = 0.0;
    for (const double c : cull) sum += c;
    report.layer("wall.cull_ratio", cull.empty() ? 0.0 : sum / cull.size(),
                 "ratio");
    report.layer("mpx.bytes_per_frame", percentile(bytes, 0.5), "bytes");
    report.layer("trace.overhead_frac",
                 percentile(traced, 0.5) / percentile(untraced, 0.5) - 1.0,
                 "ratio");
  }
}

}  // namespace pb
