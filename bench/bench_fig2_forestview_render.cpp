// Experiment F2 (paper Figure 2): multi-pane ForestView rendering.
//
// What the paper shows: the application displaying a gene subset across
// several datasets at once — global views, dendrograms, synchronized zoom
// views, annotations.
//
// What this bench reports:
//  * RenderFrame/panes      — full-frame render time vs #datasets (≈linear)
//  * RenderFrame/selection  — render time vs selection size
//  * SyncOn vs SyncOff      — ablation A1: the synchronization layer's cost
//    (aligned gap rows vs per-dataset order)
//  * RenderFrame_Cold       — the same frame from a fresh app, which colors
//    every pane's global view (the first frame, or one after a resize)
//  * RecordFrame            — command-stream recording cost (wall path)
//
// An app keeps each pane's global-view strip across frames, so every bench
// that reuses one app measures warm frames: after the first iteration they
// draw the kept strips and color none.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "cluster/hclust.hpp"
#include "core/app.hpp"
#include "core/session.hpp"
#include "expr/synth.hpp"
#include "wall/command.hpp"

namespace {

namespace ex = fv::expr;
namespace co = fv::core;

constexpr std::size_t kGenes = 1200;

/// One session per pane count; the first dataset carries a dendrogram.
co::Session& session_for(std::size_t panes, std::size_t selection) {
  static std::map<std::pair<std::size_t, std::size_t>,
                  std::unique_ptr<co::Session>>
      cache;
  const auto key = std::make_pair(panes, selection);
  const auto it = cache.find(key);
  if (it != cache.end()) return *it->second;
  ex::CompendiumSpec spec;
  spec.genome = ex::GenomeSpec::yeast_like(kGenes);
  spec.stress_datasets = panes;
  spec.nutrient_datasets = 0;
  spec.knockout_datasets = 0;
  spec.noise_datasets = 0;
  spec.seed = 2000 + panes;
  auto compendium = ex::make_compendium(spec);
  fv::par::ThreadPool pool;
  fv::cluster::cluster_genes(compendium.datasets[0],
                             fv::cluster::Metric::kPearson,
                             fv::cluster::Linkage::kAverage, pool);
  auto session = std::make_unique<co::Session>(std::move(compendium.datasets));
  session->select_region(0, 0, selection);
  return *cache.emplace(key, std::move(session)).first->second;
}

const co::FrameConfig kDesktop{1600, 1200, 4, {}};

void BM_RenderFrame_Panes(benchmark::State& state) {
  auto& session = session_for(static_cast<std::size_t>(state.range(0)), 100);
  co::ForestViewApp app(&session);
  for (auto _ : state) {
    benchmark::DoNotOptimize(app.render_desktop(kDesktop));
  }
  state.counters["panes"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_RenderFrame_Panes)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);

void BM_RenderFrame_Selection(benchmark::State& state) {
  auto& session = session_for(4, static_cast<std::size_t>(state.range(0)));
  co::ForestViewApp app(&session);
  for (auto _ : state) {
    benchmark::DoNotOptimize(app.render_desktop(kDesktop));
  }
  state.counters["selected"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_RenderFrame_Selection)->Arg(10)->Arg(50)->Arg(200)->Arg(800)
    ->Unit(benchmark::kMillisecond);

void BM_RenderFrame_SyncOn(benchmark::State& state) {
  auto& session = session_for(8, 200);
  if (!session.sync().synchronized()) session.toggle_sync();
  co::ForestViewApp app(&session);
  for (auto _ : state) {
    benchmark::DoNotOptimize(app.render_desktop(kDesktop));
  }
}
BENCHMARK(BM_RenderFrame_SyncOn)->Unit(benchmark::kMillisecond);

void BM_RenderFrame_SyncOff(benchmark::State& state) {
  auto& session = session_for(8, 200);
  if (session.sync().synchronized()) session.toggle_sync();
  co::ForestViewApp app(&session);
  for (auto _ : state) {
    benchmark::DoNotOptimize(app.render_desktop(kDesktop));
  }
  if (!session.sync().synchronized()) session.toggle_sync();  // restore
}
BENCHMARK(BM_RenderFrame_SyncOff)->Unit(benchmark::kMillisecond);

void BM_RenderFrame_Cold(benchmark::State& state) {
  auto& session = session_for(static_cast<std::size_t>(state.range(0)), 100);
  for (auto _ : state) {
    co::ForestViewApp app(&session);
    benchmark::DoNotOptimize(app.render_desktop(kDesktop));
  }
  state.counters["panes"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_RenderFrame_Cold)->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond);

void BM_SelectionPropagation(benchmark::State& state) {
  // The interactive-latency path: user drags a new region; every pane's
  // zoom rows are recomputed through the catalog.
  auto& session = session_for(static_cast<std::size_t>(state.range(0)), 100);
  std::size_t first = 0;
  for (auto _ : state) {
    session.select_region(0, first % 500, 100);
    first += 37;
    std::size_t rows = 0;
    for (std::size_t d = 0; d < session.dataset_count(); ++d) {
      rows += session.sync().zoom_rows(d, session.selection()).size();
    }
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_SelectionPropagation)->Arg(2)->Arg(8)->Arg(16);

void BM_RecordFrame(benchmark::State& state) {
  auto& session = session_for(4, 200);
  co::ForestViewApp app(&session);
  std::size_t commands = 0;
  for (auto _ : state) {
    const auto list = app.record_frame(kDesktop);
    commands = list.size();
    benchmark::DoNotOptimize(list.size());
  }
  state.counters["commands"] = static_cast<double>(commands);
}
BENCHMARK(BM_RecordFrame)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
