// Pixel-level invariants of the ForestView frame renderer: synchronized
// rows align across panes in the rendered image, gap rows appear where a
// gene is unmeasured, selection marks reach the global views, and display
// preferences (colormap/contrast) change only their own pane.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <utility>

#include "cluster/hclust.hpp"
#include "core/app.hpp"
#include "core/session.hpp"
#include "expr/synth.hpp"
#include "expr/tree.hpp"
#include "par/thread_pool.hpp"
#include "render/canvas.hpp"
#include "render/framebuffer.hpp"
#include "stats/descriptive.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/xxhash.hpp"
#include "wall/wall_display.hpp"

namespace {

namespace co = fv::core;
namespace ex = fv::expr;
namespace rd = fv::render;
namespace wl = fv::wall;

/// Two datasets over the same genome where dataset B misses gene
/// "YAL001C" (row 0 of A); values are fixed so colors are predictable.
std::vector<ex::Dataset> fixture_datasets() {
  std::vector<ex::GeneInfo> genes_a{
      {"YAL001C", "AAA1", "first"},
      {"YAL002W", "BBB2", "second"},
      {"YAL003C", "CCC3", "third"},
  };
  ex::ExpressionMatrix ma(3, 4, 2.0f);  // uniformly +2 -> saturated red
  std::vector<ex::GeneInfo> genes_b{
      {"YAL002W", "BBB2", "second"},
      {"YAL003C", "CCC3", "third"},
  };
  ex::ExpressionMatrix mb(2, 4, -2.0f);  // uniformly -2 -> saturated green
  std::vector<ex::Dataset> datasets;
  datasets.emplace_back("reds", genes_a,
                        std::vector<std::string>{"c1", "c2", "c3", "c4"},
                        std::move(ma));
  datasets.emplace_back("greens", genes_b,
                        std::vector<std::string>{"k1", "k2", "k3", "k4"},
                        std::move(mb));
  return datasets;
}

constexpr co::FrameConfig kConfig{800, 400, 4, {}};

rd::Framebuffer render(co::Session& session) {
  co::ForestViewApp app(&session);
  return app.render_desktop(kConfig);
}

std::size_t count_color_in_region(const rd::Framebuffer& fb, long x0, long x1,
                                  long y0, long y1, rd::Rgb8 color) {
  std::size_t n = 0;
  for (long y = y0; y < y1; ++y) {
    for (long x = x0; x < x1; ++x) {
      if (fb.at(static_cast<std::size_t>(x), static_cast<std::size_t>(y)) ==
          color) {
        ++n;
      }
    }
  }
  return n;
}

TEST(FrameRenderTest, ZoomViewsCarryDatasetColors) {
  auto session = co::Session(fixture_datasets());
  session.select_by_names({"AAA1", "BBB2", "CCC3"});
  const auto fb = render(session);
  // Left half = pane of "reds" (+2 everywhere -> pure red cells present),
  // right half = "greens".
  EXPECT_GT(count_color_in_region(fb, 0, 398, 0, 400, rd::colors::kRed),
            200u);
  EXPECT_GT(count_color_in_region(fb, 402, 800, 0, 400, rd::colors::kGreen),
            200u);
  // And no bleed: no saturated green in the red pane.
  EXPECT_EQ(count_color_in_region(fb, 0, 398, 0, 400, rd::colors::kGreen),
            0u);
}

TEST(FrameRenderTest, UnmeasuredGeneRendersGapRowOnlyWhenSynchronized) {
  auto session = co::Session(fixture_datasets());
  session.select_by_names({"AAA1", "BBB2"});  // AAA1 missing in "greens"
  const auto synced = render(session);
  const rd::Rgb8 gap{40, 40, 48};  // kGapRow in frame.cpp
  const auto gap_pixels_synced =
      count_color_in_region(synced, 402, 800, 0, 400, gap);
  EXPECT_GT(gap_pixels_synced, 50u) << "synchronized mode must show a gap";
  session.toggle_sync();
  const auto unsynced = render(session);
  EXPECT_EQ(count_color_in_region(unsynced, 402, 800, 0, 400, gap), 0u)
      << "unsynchronized mode shows only measured rows";
}

TEST(FrameRenderTest, SelectionMarksAppearInEveryPaneGlobalView) {
  auto session = co::Session(fixture_datasets());
  const auto before = render(session);  // empty selection: no marks
  session.select_by_names({"BBB2"});
  const auto after = render(session);
  // Highlight color pixels must appear after selecting, in both panes
  // (BBB2 is measured in both datasets).
  const auto marks_left_before =
      count_color_in_region(before, 0, 398, 0, 400, rd::colors::kHighlight);
  const auto marks_left_after =
      count_color_in_region(after, 0, 398, 0, 400, rd::colors::kHighlight);
  const auto marks_right_after =
      count_color_in_region(after, 402, 800, 0, 400, rd::colors::kHighlight);
  EXPECT_GT(marks_left_after, marks_left_before);
  EXPECT_GT(marks_right_after, 0u);
}

TEST(FrameRenderTest, PerDatasetContrastOnlyAffectsOwnPane) {
  auto session = co::Session(fixture_datasets());
  session.select_by_names({"BBB2", "CCC3"});
  const auto before = render(session);
  // Raising contrast on pane 0 de-saturates its +2 values (2/8 of range),
  // leaving pane 1 untouched.
  session.prefs(0).contrast = 8.0;
  const auto after = render(session);
  const auto red_before =
      count_color_in_region(before, 0, 398, 0, 400, rd::colors::kRed);
  const auto red_after =
      count_color_in_region(after, 0, 398, 0, 400, rd::colors::kRed);
  EXPECT_LT(red_after, red_before / 2);
  // Right pane unchanged pixel for pixel.
  const auto before_right = before.crop(402, 0, 398, 400);
  const auto after_right = after.crop(402, 0, 398, 400);
  EXPECT_EQ(before_right, after_right);
}

TEST(FrameRenderTest, ColorSchemeSwitchChangesPalette) {
  auto session = co::Session(fixture_datasets());
  session.select_by_names({"BBB2", "CCC3"});
  co::DisplayPrefs prefs;
  prefs.scheme = rd::ColorScheme::kBlueYellow;
  session.set_prefs_all(prefs);
  const auto fb = render(session);
  EXPECT_EQ(count_color_in_region(fb, 0, 800, 0, 400, rd::colors::kRed), 0u);
  EXPECT_EQ(count_color_in_region(fb, 0, 800, 0, 400, rd::colors::kGreen),
            0u);
  EXPECT_GT(count_color_in_region(fb, 0, 398, 0, 400, rd::colors::kYellow),
            100u);
  EXPECT_GT(count_color_in_region(fb, 402, 800, 0, 400, rd::colors::kBlue),
            100u);
}

TEST(FrameRenderTest, ScrollShiftsSynchronizedViews) {
  // With a tall selection and a shared scroll, the first visible row after
  // scrolling must correspond to the scrolled-to gene in every pane.
  ex::CompendiumSpec spec;
  spec.genome = ex::GenomeSpec::yeast_like(300);
  spec.stress_datasets = 2;
  spec.nutrient_datasets = 0;
  spec.knockout_datasets = 0;
  spec.noise_datasets = 0;
  spec.measured_fraction = 1.0;
  spec.seed = 9;
  auto compendium = ex::make_compendium(spec);
  auto session = co::Session(std::move(compendium.datasets));
  session.select_region(0, 0, 200);
  const auto frame_top = render(session);
  session.scroll_to(50);
  const auto frame_scrolled = render(session);
  EXPECT_NE(frame_top, frame_scrolled);
  // Scrolling back restores the exact original image.
  session.scroll_to(0);
  EXPECT_EQ(render(session), frame_top);
}

TEST(FrameRenderTest, DeterministicRendering) {
  auto session = co::Session(fixture_datasets());
  session.select_by_names({"AAA1", "BBB2", "CCC3"});
  EXPECT_EQ(render(session), render(session));
}

// -- the zoom view's heatmap --------------------------------------------------

/// One 3x3 dataset whose cells alternate +2 (saturated red) and -2
/// (saturated green), with cell (0, 1) missing.
std::vector<ex::Dataset> checker_dataset() {
  ex::ExpressionMatrix m(3, 3);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      m.set(r, c, (r + c) % 2 == 0 ? 2.0f : -2.0f);
    }
  }
  m.set(0, 1, fv::stats::missing_value());
  std::vector<ex::Dataset> datasets;
  datasets.emplace_back(
      "checker",
      std::vector<ex::GeneInfo>{{"YCK000W", "CHK0", "zero"},
                                {"YCK001W", "CHK1", "one"},
                                {"YCK002W", "CHK2", "two"}},
      std::vector<std::string>{"c0", "c1", "c2"}, std::move(m));
  return datasets;
}

/// Color at the center of zoom-view cell (row, col) of a one-pane frame.
rd::Rgb8 zoom_cell(const rd::Framebuffer& fb, const co::Session& session,
                   std::size_t row, std::size_t col) {
  const auto pane = fv::layout::split_vertical_panes(
      kConfig.width, kConfig.height, 1, kConfig.pane_gap)[0];
  const auto zoom = fv::layout::layout_pane(pane, kConfig.pane).zoom_view;
  const long cell_h = session.prefs(0).zoom_cell_height;
  const long cell_w = zoom.width / 3;
  return fb.at(
      static_cast<std::size_t>(zoom.x + static_cast<long>(col) * cell_w +
                               cell_w / 2),
      static_cast<std::size_t>(zoom.y + static_cast<long>(row) * cell_h +
                               cell_h / 2));
}

TEST(HeatmapTest, CellColorsMatchValues) {
  co::Session session(checker_dataset());
  session.select_by_names({"CHK0", "CHK1", "CHK2"});
  const auto fb = render(session);
  EXPECT_EQ(zoom_cell(fb, session, 0, 0), rd::colors::kRed);    // +2
  EXPECT_EQ(zoom_cell(fb, session, 1, 0), rd::colors::kGreen);  // -2
  EXPECT_EQ(zoom_cell(fb, session, 1, 1), rd::colors::kRed);
  EXPECT_EQ(zoom_cell(fb, session, 2, 2), rd::colors::kRed);
}

TEST(HeatmapTest, RowOrderPermutesRows) {
  // The synchronized zoom view draws rows in selection order.
  co::Session session(checker_dataset());
  session.select_by_names({"CHK1", "CHK2"});
  const auto fb = render(session);
  EXPECT_EQ(zoom_cell(fb, session, 0, 0), rd::colors::kGreen);  // CHK1
  EXPECT_EQ(zoom_cell(fb, session, 1, 0), rd::colors::kRed);    // CHK2
}

TEST(HeatmapTest, MissingCellsUseMissingColor) {
  co::Session session(checker_dataset());
  session.select_by_names({"CHK0"});
  const auto fb = render(session);
  EXPECT_EQ(zoom_cell(fb, session, 0, 1), rd::colors::kMissing);
}

TEST(HeatmapTest, BadRowOrderThrows) {
  // A selection naming a gene outside the catalog has no row to draw.
  co::Session session(checker_dataset());
  session.select_from_analysis({99}, "test");
  EXPECT_THROW(render(session), fv::InvalidArgument);
}

TEST(HeatmapTest, ZoomViewClipsRowsToItsHeight) {
  // 100 rows of 8 pixels cannot fit: only the rows the zoom view holds
  // are drawn, and no cell reaches below it.
  ex::CompendiumSpec spec;
  spec.genome = ex::GenomeSpec::yeast_like(300);
  spec.stress_datasets = 1;
  spec.nutrient_datasets = 0;
  spec.knockout_datasets = 0;
  spec.noise_datasets = 0;
  spec.measured_fraction = 1.0;
  spec.seed = 9;
  auto compendium = ex::make_compendium(spec);
  co::Session session(std::move(compendium.datasets));
  session.select_region(0, 0, 100);
  const auto pane = fv::layout::split_vertical_panes(
      kConfig.width, kConfig.height, 1, kConfig.pane_gap)[0];
  const auto zoom = fv::layout::layout_pane(pane, kConfig.pane).zoom_view;
  const long cell_h = session.prefs(0).zoom_cell_height;
  ASSERT_LT(zoom.height / cell_h, 100);

  rd::Framebuffer fb(static_cast<std::size_t>(kConfig.width),
                     static_cast<std::size_t>(kConfig.height));
  rd::FramebufferCanvas canvas(fb);
  co::GlobalViewStrips strips;
  const auto info = co::render_frame(session, canvas, kConfig, strips);
  EXPECT_EQ(info.zoom_rows_rendered,
            static_cast<std::size_t>(zoom.height / cell_h));

  const auto commands = co::ForestViewApp(&session).record_frame(kConfig);
  for (const auto& command : commands) {
    const auto bounds = command.bounds();
    // Cells start inside the zoom view; the frame and pane backgrounds
    // start left of it.
    if (command.type == wl::CommandType::kFillRect && bounds.x >= zoom.x &&
        bounds.y >= zoom.y) {
      EXPECT_LE(bounds.bottom(), zoom.bottom());
    }
  }
}

/// Three datasets whose every value is 0, +-2 (the default contrast) or
/// missing, with one dyadic gene tree: every color is an exact colormap
/// endpoint and every dendrogram coordinate exact, so the frame's bytes do
/// not depend on how the compiler contracts floating-point arithmetic
/// (native and FV_NATIVE_ARCH=OFF builds must agree).
std::vector<ex::Dataset> golden_datasets() {
  const float values[] = {2.0f, -2.0f, 0.0f, fv::stats::missing_value()};
  std::vector<ex::Dataset> datasets;
  for (std::size_t d = 0; d < 3; ++d) {
    const std::size_t rows = 12 - 2 * d;  // later datasets miss genes
    const std::size_t cols = 5 + d;
    std::vector<ex::GeneInfo> genes;
    for (std::size_t r = 0; r < rows; ++r) {
      const std::string id = std::to_string(r + d);
      genes.push_back({"YGL" + id, "GEN" + id, "gene " + id});
    }
    std::vector<std::string> conditions;
    for (std::size_t c = 0; c < cols; ++c) {
      conditions.push_back("c" + std::to_string(c));
    }
    ex::ExpressionMatrix m(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        m.set(r, c, values[(r * 3 + c + d) % 4]);
      }
    }
    datasets.emplace_back("golden" + std::to_string(d), std::move(genes),
                          std::move(conditions), std::move(m));
  }
  ex::HierTree tree(12);
  int node = tree.add_node(3, 7, 0.75);
  node = tree.add_node(node, 0, 0.5);
  for (int leaf : {1, 2, 4, 5, 6, 8, 9, 10, 11}) {
    node = tree.add_node(leaf, node, 0.25);
  }
  datasets[0].attach_gene_tree(std::move(tree));
  return datasets;
}

std::uint64_t pixel_hash(const rd::Framebuffer& fb) {
  return fv::xxhash64_of(std::span<const rd::Rgb8>(fb.pixels()));
}

// The pinned hashes are the bytes of the fill_rect-per-pixel-run global
// view that the image command replaced: drawing the strip as one image
// must not move a single desktop or wall pixel.
TEST(WallFrameGoldenTest, DesktopAndWallFrameHashesArePinned) {
  co::Session session(golden_datasets());
  session.select_by_names({"GEN3", "GEN4", "GEN5", "GEN9", "GEN11"});
  session.prefs(1).scheme = rd::ColorScheme::kBlueYellow;
  session.prefs(2).scheme = rd::ColorScheme::kGrayscale;
  co::ForestViewApp app(&session);
  EXPECT_EQ(pixel_hash(app.render_desktop(kConfig)), 0x08352fce6f146081ull);
  const wl::WallSpec spec{4, 3, 96, 64};
  EXPECT_EQ(pixel_hash(app.render_wall(spec, 2).frame),
            0x8d03ea42bcec8a7full);
}

// The same pins at the fig6 size, where every global view downsamples
// hundreds of rows and up to 120 conditions into its strip. The hashes
// are the bytes of the one-colormap-call-per-pixel box filter that the
// deduplicating one replaced.
TEST(WallFrameGoldenTest, Fig6DesktopAndWallFrameHashesArePinned) {
  ex::CompendiumSpec spec;
  spec.genome = ex::GenomeSpec::yeast_like(800);
  spec.stress_datasets = 4;
  spec.nutrient_datasets = 4;
  spec.knockout_datasets = 2;
  spec.noise_datasets = 2;
  spec.seed = 18;
  auto compendium = ex::make_compendium(spec);
  co::Session session(std::move(compendium.datasets));
  session.select_region(0, 100, 40);
  session.prefs(1).scheme = rd::ColorScheme::kBlueYellow;
  session.prefs(2).scheme = rd::ColorScheme::kGrayscale;
  session.prefs(3).contrast = 0.7;
  co::ForestViewApp app(&session);
  EXPECT_EQ(pixel_hash(app.render_desktop(co::FrameConfig{1600, 1200, 4, {}})),
            0x80b8f0487d26cdcfull);
  const wl::WallSpec wall{4, 3, 512, 384};
  const auto four = app.render_wall(wall, 4);
  EXPECT_EQ(pixel_hash(four.frame), 0x7cb93162201fd860ull);

  // Wire bytes per frame. Each node is sent the commands its tiles overlap
  // with every image cut to the bounding box of those tiles; uncut, the
  // same split would ship `uncut` bytes. At 4 nodes a node's tiles are one
  // full column, which holds each global view whole, so nothing is cut;
  // at one node per tile each view is cut at the row seams it crosses.
  const auto commands = app.record_frame(co::FrameConfig{2048, 1152, 4, {}});
  const auto uncut = [&](std::size_t nodes) {
    std::vector<std::size_t> route(wall.tile_count());
    for (std::size_t t = 0; t < route.size(); ++t) route[t] = t % nodes;
    std::size_t bytes = 0;
    for (const auto& split : wl::split_work(commands, wall, route)) {
      bytes += (2 + split.tiles.size()) * sizeof(std::uint64_t);
      for (const std::size_t i : split.commands) {
        bytes += wl::wire_size(commands[i], commands[i].bounds());
      }
    }
    return bytes;
  };
  const auto twelve = app.render_wall(wall, 12);
  EXPECT_EQ(twelve.frame, four.frame);
  EXPECT_EQ(four.stats.bytes_distributed, 2759882u);
  EXPECT_EQ(twelve.stats.bytes_distributed, 2762666u);
  EXPECT_EQ(uncut(4), 2759882u);
  EXPECT_EQ(uncut(12), 6695594u);
}

// Work counter: a 12-pane wall-sized frame records one image per global
// view; one fill per pixel run would record about 387k commands.
TEST(FrameRenderTest, WallFrameRecordsOneImagePerGlobalView) {
  ex::CompendiumSpec spec;
  spec.genome = ex::GenomeSpec::yeast_like(800);
  spec.stress_datasets = 4;
  spec.nutrient_datasets = 4;
  spec.knockout_datasets = 2;
  spec.noise_datasets = 2;
  spec.seed = 18;
  auto compendium = ex::make_compendium(spec);
  co::Session session(std::move(compendium.datasets));
  session.select_region(0, 100, 40);
  co::FrameConfig config;
  config.width = 2048;
  config.height = 1152;
  const auto commands = co::ForestViewApp(&session).record_frame(config);
  const auto images =
      std::count_if(commands.begin(), commands.end(), [](const auto& c) {
        return c.type == wl::CommandType::kImage;
      });
  EXPECT_EQ(images, 12);
  EXPECT_LT(commands.size(), 20000u);
}

/// A frame rendered with nothing retained: a fresh framebuffer and fresh
/// strips, plus the frame's counters.
std::pair<rd::Framebuffer, co::FrameInfo> fresh_frame(
    const co::Session& session, const co::FrameConfig& config) {
  rd::Framebuffer fb(static_cast<std::size_t>(config.width),
                     static_cast<std::size_t>(config.height));
  rd::FramebufferCanvas canvas(fb);
  co::GlobalViewStrips strips;
  const auto info = co::render_frame(session, canvas, config, strips);
  return {std::move(fb), info};
}

/// Bytes of one strip per dataset at `config`'s global-view sizes: what an
/// output's retained strips may hold after a frame at that size.
std::size_t strip_bytes(const co::Session& session,
                        const co::FrameConfig& config) {
  std::size_t bytes = 0;
  for (const auto& pane : fv::layout::split_vertical_panes(
           config.width, config.height, session.pane_order().size(),
           config.pane_gap)) {
    const auto view = fv::layout::layout_pane(pane, config.pane).global_view;
    bytes += static_cast<std::size_t>(view.width * view.height) *
             sizeof(rd::Rgb8);
  }
  return bytes;
}

// Work counter: a frame colors a pane's strip only when the strip's key
// (dataset, scheme, contrast, size) changed since the last frame.
TEST(FrameRetentionTest, CountsOnlyTheStripsAFrameRecolors) {
  co::Session session(golden_datasets());
  session.select_by_names({"GEN3", "GEN4"});
  co::GlobalViewStrips strips;
  rd::Framebuffer fb(static_cast<std::size_t>(kConfig.width),
                     static_cast<std::size_t>(kConfig.height));
  rd::FramebufferCanvas canvas(fb);
  const auto computed = [&] {
    return co::render_frame(session, canvas, kConfig, strips)
        .strips_computed;
  };
  EXPECT_EQ(computed(), 3u);  // one per pane on the first frame
  EXPECT_EQ(computed(), 0u);  // an identical frame recolors nothing
  session.prefs(1).contrast = 1.5;
  EXPECT_EQ(computed(), 1u);
  session.prefs(2).scheme = rd::ColorScheme::kBlueYellow;
  EXPECT_EQ(computed(), 1u);
  // Selection, sync and scroll leave every global view as it was.
  session.select_by_names({"GEN5", "GEN9", "GEN11"});
  session.toggle_sync();
  session.scroll_to(1);
  EXPECT_EQ(computed(), 0u);
  // Setting the same values again is no change.
  session.prefs(1).contrast = 1.5;
  EXPECT_EQ(computed(), 0u);
  EXPECT_EQ(strips.size(), 3u);
  EXPECT_EQ(strips.bytes(), strip_bytes(session, kConfig));
  EXPECT_EQ(fb, fresh_frame(session, kConfig).first);
}

// One output keeps one strip per dataset: resizing the window replaces a
// dataset's strip rather than adding one, and a smaller strip does not keep
// a larger one's storage.
TEST(FrameRetentionTest, ResizingKeepsOneStripPerDataset) {
  co::Session session(golden_datasets());
  co::ForestViewApp app(&session);
  for (const long width : {800L, 1200L, 640L, 1200L, 300L}) {
    const co::FrameConfig config{width, width / 2, 4, {}};
    EXPECT_EQ(app.render_desktop(config), fresh_frame(session, config).first);
    EXPECT_EQ(app.desktop_strips().size(), session.dataset_count());
    EXPECT_EQ(app.desktop_strips().bytes(), strip_bytes(session, config));
  }
  EXPECT_EQ(app.wall_strips().size(), 0u);
}

// A recorded frame shares each global view's kept strip rather than
// copying it: every image command points at the strip's own pixels.
TEST(FrameRetentionTest, RecordedImagesShareTheKeptStrips) {
  co::Session session(golden_datasets());
  session.prefs(1).scheme = rd::ColorScheme::kBlueYellow;
  co::GlobalViewStrips strips;
  wl::RecordingCanvas recorder;
  co::render_frame(session, recorder, kConfig, strips);
  std::vector<rd::SharedPixels> images;
  for (const auto& command : recorder.commands()) {
    if (command.type == wl::CommandType::kImage) {
      images.push_back(command.image);
    }
  }
  const auto panes = fv::layout::split_vertical_panes(
      kConfig.width, kConfig.height, session.pane_order().size(),
      kConfig.pane_gap);
  ASSERT_EQ(images.size(), panes.size());
  for (std::size_t p = 0; p < panes.size(); ++p) {
    const std::size_t d = session.pane_order()[p];
    const auto view =
        fv::layout::layout_pane(panes[p], kConfig.pane).global_view;
    bool computed = true;
    const auto strip = strips.strip(
        session, d,
        rd::ExpressionColormap(session.prefs(d).scheme,
                               session.prefs(d).contrast),
        view.width, view.height, computed);
    EXPECT_FALSE(computed);
    EXPECT_EQ(images[p].pixels.data(), strip.pixels.data()) << "pane " << p;
    EXPECT_EQ(images[p].pixels.size(), strip.pixels.size());
  }
}

// A recolored strip goes into a fresh buffer, so a recording kept across
// the change still holds, and replays to, the pixels it was recorded with,
// through render_reference and through a wall frame alike.
TEST(WallFrameRetentionTest, KeptRecordingReplaysUnchangedAfterContrastChange) {
  co::Session session(golden_datasets());
  session.select_by_names({"GEN3", "GEN4"});
  co::ForestViewApp app(&session);
  const wl::WallSpec spec{4, 3, 96, 64};
  co::FrameConfig config;
  config.width = static_cast<long>(spec.total_width());
  config.height = static_cast<long>(spec.total_height());
  const auto kept = app.record_frame(config);
  const auto replay = [&](const wl::CommandList& commands) {
    return pixel_hash(wl::render_reference(commands, spec.total_width(),
                                           spec.total_height()));
  };
  const std::uint64_t recorded = replay(kept);
  co::DisplayPrefs prefs = session.prefs(0);
  prefs.contrast = 3.7;  // +-2 no longer saturates
  session.set_prefs_all(prefs);
  const auto changed = app.record_frame(config);
  ASSERT_NE(replay(changed), recorded);
  EXPECT_EQ(replay(kept), recorded);
  EXPECT_EQ(pixel_hash(wl::render_wall_frame(kept, spec, 3).frame), recorded);
  // The app keeps only the recolored strips; the old ones live on in the
  // kept recording alone.
  EXPECT_EQ(app.wall_strips().bytes(), strip_bytes(session, config));
}

// Desktop and wall frames keep their strips apart, so alternating between
// them recolors nothing on a repeat of either.
TEST(FrameRetentionTest, AlternatingDesktopAndWallFramesRecolorNothing) {
  co::Session session(golden_datasets());
  co::GlobalViewStrips desktop_strips, wall_strips;
  rd::Framebuffer fb(static_cast<std::size_t>(kConfig.width),
                     static_cast<std::size_t>(kConfig.height));
  rd::FramebufferCanvas desktop(fb);
  const co::FrameConfig wall_config{384, 192, 4, {}};
  const auto desktop_frame = [&] {
    return co::render_frame(session, desktop, kConfig, desktop_strips)
        .strips_computed;
  };
  const auto wall_frame = [&] {
    wl::RecordingCanvas recorder;
    return co::render_frame(session, recorder, wall_config, wall_strips)
        .strips_computed;
  };
  EXPECT_EQ(desktop_frame(), 3u);
  EXPECT_EQ(wall_frame(), 3u);
  for (int repeat = 0; repeat < 3; ++repeat) {
    EXPECT_EQ(desktop_frame(), 0u);
    EXPECT_EQ(wall_frame(), 0u);
  }
  EXPECT_EQ(desktop_strips.bytes(), strip_bytes(session, kConfig));
  EXPECT_EQ(wall_strips.bytes(), strip_bytes(session, wall_config));
}

/// A small compendium whose first dataset is clustered, so its display
/// order is a tree's leaf order rather than the row order.
std::vector<ex::Dataset> retention_datasets(std::uint64_t seed) {
  ex::CompendiumSpec spec;
  spec.genome = ex::GenomeSpec::yeast_like(160);
  spec.stress_datasets = 2;
  spec.nutrient_datasets = 1;
  spec.knockout_datasets = 1;
  spec.noise_datasets = 1;
  spec.seed = seed;
  auto compendium = ex::make_compendium(spec);
  fv::par::ThreadPool pool(1);
  fv::cluster::cluster_genes(compendium.datasets[0],
                             fv::cluster::Metric::kPearson,
                             fv::cluster::Linkage::kAverage, pool);
  return std::move(compendium.datasets);
}

// Differential check of retention: one app runs a seeded sequence of the
// actions that do and do not change a global view, with desktop and wall
// frames interleaved. After every step its desktop frame equals a frame
// rendered with nothing retained, byte for byte, and its wall frame equals
// render_reference of a freshly recorded stream.
TEST(FrameRetentionTest, SeededSessionMatchesRenderingWithNothingRetained) {
  co::Session session(retention_datasets(31));
  co::ForestViewApp app(&session);
  auto extra = retention_datasets(32);
  std::size_t added = 0;
  fv::Rng rng(0x5e7a);
  const co::FrameConfig sizes[] = {
      {720, 400, 4, {}}, {640, 480, 4, {}}, {900, 300, 6, {}}};
  co::FrameConfig config = sizes[0];
  const wl::WallSpec walls[] = {{2, 2, 240, 120}, {3, 1, 200, 200}};
  const rd::ColorScheme schemes[] = {rd::ColorScheme::kRedGreen,
                                     rd::ColorScheme::kBlueYellow,
                                     rd::ColorScheme::kGrayscale};
  const double contrasts[] = {0.5, 1.0, 2.0, 3.7};
  co::GlobalViewStrips kept;
  std::size_t desktop_computed = 0, desktop_shown = 0, walls_checked = 0;
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_u64(n));
  };
  for (int step = 0; step < 60; ++step) {
    const std::size_t count = session.dataset_count();
    switch (pick(9)) {
      case 0: {
        const std::size_t d = pick(count);
        session.select_region(d, pick(session.dataset(d).gene_count()),
                              1 + pick(60));
        break;
      }
      case 1: {
        std::vector<std::size_t> order(count);
        std::iota(order.begin(), order.end(), std::size_t{0});
        for (std::size_t i = count; i > 1; --i) {
          std::swap(order[i - 1], order[pick(i)]);
        }
        session.order_panes(order);
        break;
      }
      case 2:
        session.toggle_sync();
        break;
      case 3:
        session.scroll_to(pick(20));
        break;
      case 4:
        session.prefs(pick(count)).scheme = schemes[pick(3)];
        break;
      case 5:
        session.prefs(pick(count)).contrast = contrasts[pick(4)];
        break;
      case 6: {
        co::DisplayPrefs prefs = session.prefs(pick(count));
        prefs.contrast = contrasts[pick(4)];
        session.set_prefs_all(prefs);
        break;
      }
      case 7:
        if (added < 2) session.add_dataset(std::move(extra[added++]));
        break;
      default:
        config = sizes[pick(3)];
        break;
    }
    const auto [fresh, info] = fresh_frame(session, config);
    ASSERT_EQ(app.render_desktop(config), fresh) << "step " << step;
    EXPECT_EQ(app.desktop_strips().size(), session.dataset_count());
    EXPECT_EQ(app.desktop_strips().bytes(), strip_bytes(session, config));
    EXPECT_EQ(info.strips_computed, session.dataset_count());
    // The same frame through strips kept beside the app's, to count the
    // recolored strips (the app's desktop frames hit and miss alike).
    rd::Framebuffer beside(static_cast<std::size_t>(config.width),
                           static_cast<std::size_t>(config.height));
    rd::FramebufferCanvas canvas(beside);
    desktop_computed +=
        co::render_frame(session, canvas, config, kept).strips_computed;
    ASSERT_EQ(beside, fresh) << "step " << step;
    desktop_shown += session.dataset_count();
    if (step % 3 == 0) {
      const wl::WallSpec& spec = walls[pick(2)];
      co::FrameConfig wall_config;
      wall_config.width = static_cast<long>(spec.total_width());
      wall_config.height = static_cast<long>(spec.total_height());
      wl::RecordingCanvas recorder;
      co::GlobalViewStrips nothing_kept;
      co::render_frame(session, recorder, wall_config, nothing_kept);
      const auto wall = app.render_wall(spec, 2);
      ASSERT_EQ(wall.frame,
                wl::render_reference(recorder.commands(), spec.total_width(),
                                     spec.total_height()))
          << "step " << step;
      EXPECT_EQ(app.wall_strips().bytes(), strip_bytes(session, wall_config));
      ++walls_checked;
    }
  }
  EXPECT_EQ(added, 2u);
  EXPECT_EQ(walls_checked, 20u);
  // Most frames reuse most strips.
  EXPECT_GT(desktop_computed, 0u);
  EXPECT_LT(desktop_computed * 3, desktop_shown);
}

// After each frame an output holds only the strips its panes drew. A
// narrow wall frame whose seven panes draw no global view leaves none
// behind from the wider frame before it.
TEST(FrameRetentionTest, FrameWithoutGlobalViewsKeepsNoStrips) {
  co::Session session(retention_datasets(31));
  auto extra = retention_datasets(32);
  session.add_dataset(std::move(extra[0]));
  session.add_dataset(std::move(extra[1]));
  ASSERT_EQ(session.dataset_count(), 7u);
  co::ForestViewApp app(&session);
  const co::FrameConfig wide{450, 240, 4, {}};
  const co::FrameConfig narrow{360, 240, 4, {}};
  app.record_frame(wide);
  EXPECT_EQ(app.wall_strips().size(), 7u);
  EXPECT_GT(app.wall_strips().bytes(), 0u);
  EXPECT_EQ(app.wall_strips().bytes(), strip_bytes(session, wide));
  const auto commands = app.record_frame(narrow);
  EXPECT_EQ(std::count_if(commands.begin(), commands.end(),
                          [](const auto& c) {
                            return c.type == wl::CommandType::kImage;
                          }),
            0);
  EXPECT_EQ(app.wall_strips().size(), 0u);
  EXPECT_EQ(app.wall_strips().bytes(), 0u);
  // Wider again: every strip is colored anew.
  app.record_frame(wide);
  EXPECT_EQ(app.wall_strips().bytes(), strip_bytes(session, wide));
}

}  // namespace
