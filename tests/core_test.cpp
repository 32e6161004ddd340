// Tests for ForestView's core: gene catalog, merged dataset interface,
// selection/synchronization, session operations and frame rendering.
#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <set>
#include <thread>

#include "core/app.hpp"
#include "core/gene_catalog.hpp"
#include "core/merged.hpp"
#include "core/session.hpp"
#include "core/sync.hpp"
#include "expr/synth.hpp"
#include "spell/spell.hpp"
#include "stats/descriptive.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace {

namespace co = fv::core;
namespace ex = fv::expr;

/// Two tiny hand-built datasets with partially overlapping genes in
/// different orders plus aliases.
std::vector<ex::Dataset> tiny_datasets() {
  std::vector<ex::GeneInfo> genes_a{
      {"YAL001C", "TFC3", "transcription"},
      {"YBR072W", "HSP26", "heat shock protein"},
      {"YGR192C", "TDH3", "glycolysis"},
  };
  ex::ExpressionMatrix ma(3, 2);
  ma.set(0, 0, 1.0f);
  ma.set(0, 1, 2.0f);
  ma.set(1, 0, 3.0f);
  ma.set(1, 1, 4.0f);
  ma.set(2, 0, 5.0f);
  ma.set(2, 1, 6.0f);
  std::vector<ex::GeneInfo> genes_b{
      {"YGR192C", "TDH3", "glycolysis"},
      {"YDL229W", "SSB1", "chaperone"},
      {"YBR072W", "HSP26", "heat shock protein"},
  };
  ex::ExpressionMatrix mb(3, 3);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      mb.set(r, c, static_cast<float>(10 * r + c));
    }
  }
  std::vector<ex::Dataset> datasets;
  datasets.emplace_back("alpha", genes_a,
                        std::vector<std::string>{"c1", "c2"}, std::move(ma));
  datasets.emplace_back("beta", genes_b,
                        std::vector<std::string>{"k1", "k2", "k3"},
                        std::move(mb));
  return datasets;
}

TEST(GeneCatalogTest, UnionAndAliases) {
  const auto datasets = tiny_datasets();
  const co::GeneCatalog catalog(datasets);
  EXPECT_EQ(catalog.gene_count(), 4u);  // union of 3 + 3 with 2 shared
  EXPECT_EQ(catalog.dataset_count(), 2u);
  // Lookup by systematic and common name, case-insensitive.
  const auto by_systematic = catalog.find("YBR072W");
  const auto by_common = catalog.find("hsp26");
  ASSERT_TRUE(by_systematic.has_value());
  EXPECT_EQ(*by_systematic, *by_common);
  EXPECT_FALSE(catalog.find("nonexistent").has_value());
}

TEST(GeneCatalogTest, RowMappingBothWays) {
  const auto datasets = tiny_datasets();
  const co::GeneCatalog catalog(datasets);
  const auto hsp = *catalog.find("HSP26");
  EXPECT_EQ(catalog.row_in(0, hsp), std::size_t{1});
  EXPECT_EQ(catalog.row_in(1, hsp), std::size_t{2});
  const auto tfc3 = *catalog.find("TFC3");
  EXPECT_EQ(catalog.row_in(0, tfc3), std::size_t{0});
  EXPECT_FALSE(catalog.row_in(1, tfc3).has_value());
  EXPECT_EQ(catalog.id_of_row(1, 2), hsp);
  EXPECT_EQ(catalog.datasets_measuring(hsp), 2u);
  EXPECT_EQ(catalog.datasets_measuring(tfc3), 1u);
}

TEST(MergedInterfaceTest, ThreeDimensionalAccess) {
  const auto datasets = tiny_datasets();
  co::MergedDatasetInterface merged(&datasets);
  const auto hsp = *merged.catalog().find("HSP26");
  // alpha row 1, condition 1 -> 4.0; beta row 2, condition 0 -> 20.
  EXPECT_FLOAT_EQ(*merged.value(0, hsp, 1), 4.0f);
  EXPECT_FLOAT_EQ(*merged.value(1, hsp, 0), 20.0f);
  const auto tfc3 = *merged.catalog().find("TFC3");
  EXPECT_FALSE(merged.value(1, tfc3, 0).has_value());
  EXPECT_EQ(merged.total_measurements(), 3u * 2u + 3u * 3u);
}

TEST(MergedInterfaceTest, RowsForScansAcrossDatasets) {
  const auto datasets = tiny_datasets();
  co::MergedDatasetInterface merged(&datasets);
  const auto tdh3 = *merged.catalog().find("TDH3");
  const auto rows = merged.rows_for(tdh3);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(*rows[0], 2u);
  EXPECT_EQ(*rows[1], 0u);
}

TEST(MergedInterfaceTest, FindAndSearch) {
  const auto datasets = tiny_datasets();
  co::MergedDatasetInterface merged(&datasets);
  const auto found =
      merged.find_genes_by_name({"TFC3", "nope", "hsp26", "TFC3"});
  EXPECT_EQ(found.size(), 2u);  // dedup + unknown skipped
  const auto heat = merged.search_annotation("heat shock");
  ASSERT_EQ(heat.size(), 1u);
  EXPECT_EQ(heat[0], *merged.catalog().find("HSP26"));
  // SSB1 only exists in beta; the search must reach it.
  EXPECT_EQ(merged.search_annotation("chaperone").size(), 1u);
}

TEST(MergedInterfaceTest, ExportGeneListAndMerged) {
  const auto datasets = tiny_datasets();
  co::MergedDatasetInterface merged(&datasets);
  const auto ids = merged.find_genes_by_name({"HSP26", "TFC3"});
  const auto set = merged.export_gene_list(ids, "picks", "demo");
  EXPECT_EQ(set.genes,
            (std::vector<std::string>{"YBR072W", "YAL001C"}));

  const auto exported = merged.export_merged(ids, "merged");
  EXPECT_EQ(exported.gene_count(), 2u);
  EXPECT_EQ(exported.condition_count(), 5u);  // 2 + 3
  EXPECT_EQ(exported.condition(0), "alpha::c1");
  EXPECT_EQ(exported.condition(2), "beta::k1");
  // HSP26 row: alpha values then beta values.
  const auto hsp_row = *exported.row_of("HSP26");
  EXPECT_FLOAT_EQ(exported.values().at(hsp_row, 0), 3.0f);
  EXPECT_FLOAT_EQ(exported.values().at(hsp_row, 2), 20.0f);
  // TFC3 absent in beta -> missing cells there.
  const auto tfc_row = *exported.row_of("TFC3");
  EXPECT_TRUE(fv::stats::is_missing(exported.values().at(tfc_row, 2)));
}

TEST(MergedInterfaceTest, OrderDatasetsPrefersCoherentCoverage) {
  // Build a compendium where ESR genes are coherent in stress data and
  // incoherent in noise data.
  ex::CompendiumSpec spec;
  spec.genome = ex::GenomeSpec::yeast_like(300);
  spec.stress_datasets = 1;
  spec.nutrient_datasets = 0;
  spec.knockout_datasets = 0;
  spec.noise_datasets = 1;
  spec.seed = 5;
  auto compendium = ex::make_compendium(spec);
  co::MergedDatasetInterface merged(&compendium.datasets);
  std::vector<co::GeneId> esr;
  for (const std::size_t g : compendium.genome.module_members("ESR_UP")) {
    if (const auto id =
            merged.catalog().find(compendium.genome.gene(g).systematic_name);
        id.has_value()) {
      esr.push_back(*id);
    }
  }
  const auto order = merged.order_datasets(esr);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(compendium.datasets[order[0]].name(), "stress_1");
}

co::Session make_session() { return co::Session(tiny_datasets()); }

TEST(SelectionTest, OrderedDeduplicated) {
  co::SelectionModel selection;
  selection.set({3, 1, 3, 2});
  EXPECT_EQ(selection.ordered(), (std::vector<co::GeneId>{3, 1, 2}));
  EXPECT_TRUE(selection.contains(1));
  EXPECT_FALSE(selection.contains(7));
  selection.add(7);
  EXPECT_TRUE(selection.contains(7));
  selection.clear();
  EXPECT_TRUE(selection.empty());
}

TEST(SyncTest, SynchronizedRowsAlignAcrossPanes) {
  const auto datasets = tiny_datasets();
  co::MergedDatasetInterface merged(&datasets);
  co::SyncController sync(&merged);
  co::SelectionModel selection;
  selection.set({*merged.catalog().find("HSP26"),
                 *merged.catalog().find("TFC3"),
                 *merged.catalog().find("TDH3")});
  ASSERT_TRUE(sync.synchronized());
  const auto rows_a = sync.zoom_rows(0, selection);
  const auto rows_b = sync.zoom_rows(1, selection);
  ASSERT_EQ(rows_a.size(), 3u);
  ASSERT_EQ(rows_b.size(), 3u);
  // Same gene sequence in both panes (the alignment invariant).
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(rows_a[i].gene, rows_b[i].gene);
  }
  // TFC3 is missing in beta: gap in pane b, present in pane a.
  EXPECT_TRUE(rows_a[1].row.has_value());
  EXPECT_FALSE(rows_b[1].row.has_value());
}

TEST(SyncTest, UnsynchronizedUsesDatasetOrderWithoutGaps) {
  const auto datasets = tiny_datasets();
  co::MergedDatasetInterface merged(&datasets);
  co::SyncController sync(&merged);
  sync.set_synchronized(false);
  co::SelectionModel selection;
  selection.set({*merged.catalog().find("HSP26"),
                 *merged.catalog().find("TFC3"),
                 *merged.catalog().find("TDH3")});
  const auto rows_b = sync.zoom_rows(1, selection);
  ASSERT_EQ(rows_b.size(), 2u);  // TFC3 not measured in beta: no gap row
  // beta's own order: TDH3 (row 0) before HSP26 (row 2).
  EXPECT_EQ(rows_b[0].row, std::size_t{0});
  EXPECT_EQ(rows_b[1].row, std::size_t{2});
}

TEST(SessionTest, SelectRegionPropagatesAcrossDatasets) {
  auto session = make_session();
  // alpha display order is file order; select rows 1..2 (HSP26, TDH3).
  session.select_region(0, 1, 2);
  EXPECT_EQ(session.selection().size(), 2u);
  const auto rows_b = session.sync().zoom_rows(1, session.selection());
  ASSERT_EQ(rows_b.size(), 2u);
  EXPECT_TRUE(rows_b[0].row.has_value());  // HSP26 in beta
  EXPECT_TRUE(rows_b[1].row.has_value());  // TDH3 in beta
}

TEST(SessionTest, SelectionOpsAndLog) {
  auto session = make_session();
  EXPECT_EQ(session.select_by_names({"HSP26", "missing"}), 1u);
  EXPECT_EQ(session.select_by_annotation("glycolysis"), 1u);
  session.toggle_sync();
  EXPECT_FALSE(session.sync().synchronized());
  session.toggle_sync();
  session.scroll_to(5);
  EXPECT_EQ(session.sync().scroll(), 5u);
  session.clear_selection();
  EXPECT_EQ(session.operation_count(), 6u);
  EXPECT_NE(session.event_log()[0].find("select_by_names"),
            std::string::npos);
}

TEST(SessionTest, OrderPanesValidatesPermutation) {
  auto session = make_session();
  session.order_panes({1, 0});
  EXPECT_EQ(session.pane_order(), (std::vector<std::size_t>{1, 0}));
  EXPECT_THROW(session.order_panes({0, 0}), fv::InvalidArgument);
  EXPECT_THROW(session.order_panes({0}), fv::InvalidArgument);
}

TEST(SessionTest, ExportSelectionRoundTrip) {
  auto session = make_session();
  session.select_by_names({"HSP26", "TDH3"});
  const auto set = session.export_selection("picks");
  EXPECT_EQ(set.genes.size(), 2u);
  const auto merged_export = session.export_merged_selection("sub");
  EXPECT_EQ(merged_export.gene_count(), 2u);
  EXPECT_EQ(merged_export.condition_count(), 5u);
}

TEST(SessionTest, AddDatasetPreservesSelectionByName) {
  auto session = make_session();
  session.select_by_names({"HSP26"});
  // Load the exported selection back in as a new dataset (paper workflow).
  auto exported = session.export_merged_selection("subset");
  session.add_dataset(std::move(exported));
  EXPECT_EQ(session.dataset_count(), 3u);
  EXPECT_EQ(session.pane_order().size(), 3u);
  ASSERT_EQ(session.selection().size(), 1u);
  EXPECT_EQ(session.merged().catalog().name(session.selection().ordered()[0]),
            "YBR072W");
  // The new dataset participates in sync.
  const auto rows = session.sync().zoom_rows(2, session.selection());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0].row.has_value());
}

TEST(SessionTest, PrefsPerDatasetAndAll) {
  auto session = make_session();
  session.prefs(0).contrast = 4.0;
  EXPECT_DOUBLE_EQ(session.prefs(0).contrast, 4.0);
  EXPECT_DOUBLE_EQ(session.prefs(1).contrast, 2.0);
  co::DisplayPrefs all;
  all.scheme = fv::render::ColorScheme::kBlueYellow;
  session.set_prefs_all(all);
  EXPECT_EQ(session.prefs(1).scheme, fv::render::ColorScheme::kBlueYellow);
}

/// The one catalog a serving layer builds for a shared compendium.
std::shared_ptr<const co::GeneCatalog> catalog_of(
    const std::shared_ptr<const std::vector<ex::Dataset>>& shared) {
  return std::make_shared<const co::GeneCatalog>(*shared);
}

TEST(SessionTest, SharedCompendiumSessionsAliasOneVector) {
  const auto shared =
      std::make_shared<const std::vector<ex::Dataset>>(tiny_datasets());
  const auto catalog = catalog_of(shared);
  co::Session a(shared, catalog);
  co::Session b(shared, catalog);
  EXPECT_TRUE(a.shares_datasets());
  // Both sessions read the SAME vector — aliased, not copied.
  EXPECT_EQ(&a.datasets(), shared.get());
  EXPECT_EQ(&b.datasets(), shared.get());
  // Per-session state stays private: selecting in one leaves the other.
  a.select_by_names({"HSP26"});
  EXPECT_EQ(a.selection().size(), 1u);
  EXPECT_EQ(b.selection().size(), 0u);
  // The shared compendium is read-only by construction.
  EXPECT_THROW(a.add_dataset(tiny_datasets()[0]), fv::InvalidArgument);
}

// Shared sessions alias one catalog, and that catalog answers every lookup
// exactly as the catalog a session over its own copy of the datasets
// builds. The compendium is seeded with common-name aliases, plus the tiny
// datasets and one dataset that measures a gene on two rows.
TEST(SessionTest, SharedSessionsShareOneCatalog) {
  ex::CompendiumSpec spec;
  spec.genome = ex::GenomeSpec::yeast_like(200);
  spec.seed = 17;
  std::vector<ex::Dataset> datasets = ex::make_compendium(spec).datasets;
  for (ex::Dataset& tiny : tiny_datasets()) datasets.push_back(std::move(tiny));
  ex::ExpressionMatrix dup_values(3, 1);
  datasets.emplace_back(
      "dup",
      std::vector<ex::GeneInfo>{{"YBR072W", "HSP26", "heat shock protein"},
                                {"YDL229W", "SSB1", "chaperone"},
                                {"ybr072w", "", "heat shock protein"}},
      std::vector<std::string>{"d1"}, std::move(dup_values));
  const auto shared =
      std::make_shared<const std::vector<ex::Dataset>>(std::move(datasets));
  const auto catalog = catalog_of(shared);

  co::Session a(shared, catalog);
  co::Session b(shared, catalog);
  co::Session owned(*shared);
  EXPECT_EQ(&a.merged().catalog(), &b.merged().catalog());
  EXPECT_EQ(&a.merged().catalog(), catalog.get());
  EXPECT_NE(&owned.merged().catalog(), catalog.get());

  const co::GeneCatalog& own = owned.merged().catalog();
  ASSERT_EQ(catalog->gene_count(), own.gene_count());
  ASSERT_EQ(catalog->dataset_count(), own.dataset_count());

  // Names: systematic and common, as stored, upper- and lower-cased, mixed
  // case and padded; unknown names; duplicates.
  std::vector<std::string> names{"nope", "", "  hsp26 ", "HsP26", "Ssb1",
                                 "TFC3", "tfc3", "YBR072W", "YBR072W"};
  for (const ex::Dataset& dataset : *shared) {
    for (std::size_t row = 0; row < dataset.gene_count(); row += 7) {
      const ex::GeneInfo& gene = dataset.gene(row);
      names.push_back(gene.systematic_name);
      names.push_back(fv::str::to_lower(gene.systematic_name));
      if (!gene.common_name.empty()) {
        names.push_back(gene.common_name);
        std::string mixed = fv::str::to_lower(gene.common_name);
        mixed[0] = static_cast<char>(std::toupper(mixed[0]));
        names.push_back(mixed);
      }
    }
  }
  std::size_t aliases_found = 0;
  for (const std::string& name : names) {
    EXPECT_EQ(catalog->find(name), own.find(name)) << name;
    if (catalog->find(name).has_value()) ++aliases_found;
  }
  EXPECT_GT(aliases_found, names.size() / 2);

  for (std::size_t d = 0; d < shared->size(); ++d) {
    for (co::GeneId id = 0; id < catalog->gene_count(); ++id) {
      ASSERT_EQ(catalog->row_in(d, id), own.row_in(d, id));
    }
    for (std::size_t row = 0; row < (*shared)[d].gene_count(); ++row) {
      ASSERT_EQ(catalog->id_of_row(d, row), own.id_of_row(d, row));
    }
  }
  // The duplicate row maps to its gene, and the gene to its first row.
  const std::size_t dup = shared->size() - 1;
  EXPECT_EQ(catalog->id_of_row(dup, 2), *catalog->find("HSP26"));
  EXPECT_EQ(catalog->row_in(dup, *catalog->find("HSP26")), std::size_t{0});

  EXPECT_EQ(a.select_by_names(names), owned.select_by_names(names));
  EXPECT_EQ(a.selection().ordered(), owned.selection().ordered());
  EXPECT_TRUE(b.selection().empty());
  for (std::size_t d = 0; d < shared->size(); ++d) {
    a.select_region(d, 0, 40);
    owned.select_region(d, 0, 40);
    EXPECT_EQ(a.selection().ordered(), owned.selection().ordered()) << d;
  }

  // A catalog of another dataset vector, or none, is refused.
  const auto fewer = std::make_shared<const co::GeneCatalog>(tiny_datasets());
  EXPECT_THROW((co::Session{shared, fewer}), fv::InvalidArgument);
  EXPECT_THROW((co::Session{shared, nullptr}), fv::InvalidArgument);
}

// The serving layer's aliasing pattern, pinned under TSan (this suite runs
// in CI's tsan leg): two sessions over ONE shared dataset vector, one
// thread rendering frames while the other runs SPELL over the same aliased
// datasets. Read-only concurrent access must be race-free with no
// compendium lock.
TEST(SessionTest, SharedSessionsConcurrentRenderAndSpellAreRaceFree) {
  const auto shared =
      std::make_shared<const std::vector<ex::Dataset>>(tiny_datasets());
  const auto catalog = catalog_of(shared);
  co::Session render_session(shared, catalog);
  co::Session spell_session(shared, catalog);
  render_session.select_region(0, 0, 3);

  std::thread renderer([&render_session] {
    co::GlobalViewStrips strips;
    for (int i = 0; i < 8; ++i) {
      fv::render::Framebuffer fb(400, 300);
      fv::render::FramebufferCanvas canvas(fb);
      co::FrameConfig config;
      config.width = 400;
      config.height = 300;
      const auto info =
          co::render_frame(render_session, canvas, config, strips);
      EXPECT_EQ(info.panes_rendered, 2u);
    }
  });
  std::thread analyst([&spell_session] {
    const fv::spell::SpellSearch spell(spell_session.datasets());
    for (int i = 0; i < 8; ++i) {
      const auto result = spell.search({"HSP26", "TDH3"});
      EXPECT_FALSE(result.dataset_ranking.empty());
    }
  });
  renderer.join();
  analyst.join();
}

TEST(FrameTest, RendersPanesAndRows) {
  auto session = make_session();
  session.select_region(0, 0, 3);
  fv::render::Framebuffer fb(800, 600);
  fv::render::FramebufferCanvas canvas(fb);
  co::FrameConfig config;
  config.width = 800;
  config.height = 600;
  co::GlobalViewStrips strips;
  const auto info = co::render_frame(session, canvas, config, strips);
  EXPECT_EQ(info.panes_rendered, 2u);
  EXPECT_GT(info.zoom_rows_rendered, 0u);
  EXPECT_GT(info.cells_rendered, 0u);
  // Something non-background must have been drawn.
  std::size_t lit = 0;
  for (const auto& p : fb.pixels()) {
    if (!(p == fv::render::colors::kBlack)) ++lit;
  }
  EXPECT_GT(lit, 5000u);
}

TEST(AppTest, DesktopAndWallAgreePixelExactly) {
  auto session = make_session();
  session.select_region(0, 0, 3);
  co::ForestViewApp app(&session);
  const fv::wall::WallSpec spec{2, 2, 200, 150};
  co::FrameConfig config;
  config.width = static_cast<long>(spec.total_width());
  config.height = static_cast<long>(spec.total_height());
  const auto desktop = app.render_desktop(config);
  const auto wall = app.render_wall(spec);
  EXPECT_EQ(wall.frame, desktop)
      << "wall rendering must be pixel-identical to the desktop path";
  EXPECT_GT(wall.commands, 0u);
  EXPECT_GT(wall.stats.commands_executed, 0u);
}

}  // namespace
