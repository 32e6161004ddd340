// Tests for geometry and pane layout.
#include <gtest/gtest.h>

#include "layout/geometry.hpp"
#include "layout/pane.hpp"
#include "util/error.hpp"

namespace {

namespace ly = fv::layout;
using ly::Rect;

TEST(RectTest, BasicPredicates) {
  const Rect r{2, 3, 4, 5};
  EXPECT_FALSE(r.empty());
  EXPECT_EQ(r.right(), 6);
  EXPECT_EQ(r.bottom(), 8);
  EXPECT_TRUE(r.contains(2, 3));
  EXPECT_TRUE(r.contains(5, 7));
  EXPECT_FALSE(r.contains(6, 3));
  EXPECT_TRUE((Rect{0, 0, 0, 5}).empty());
}

TEST(RectTest, IntersectionCases) {
  const Rect a{0, 0, 10, 10};
  const Rect b{5, 5, 10, 10};
  const Rect i = ly::intersect(a, b);
  EXPECT_EQ(i, (Rect{5, 5, 5, 5}));
  EXPECT_TRUE(ly::intersect(a, Rect{20, 20, 5, 5}).empty());
  EXPECT_TRUE(ly::overlaps(a, b));
  EXPECT_FALSE(ly::overlaps(a, Rect{10, 0, 5, 5}));  // edge-adjacent
}

TEST(RectTest, InsetShrinks) {
  const Rect r{0, 0, 10, 10};
  EXPECT_EQ(ly::inset(r, 2), (Rect{2, 2, 6, 6}));
  EXPECT_TRUE(ly::inset(r, 6).empty());
}

TEST(PaneLayoutTest, PartsAreDisjointAndInsidePane) {
  const Rect pane{10, 20, 400, 600};
  const auto parts = ly::layout_pane(pane, ly::PaneConfig{});
  const Rect* rects[] = {&parts.header,     &parts.global_view,
                         &parts.gene_tree,  &parts.array_tree,
                         &parts.zoom_view,  &parts.annotations};
  for (const Rect* r : rects) {
    ASSERT_FALSE(r->empty());
    EXPECT_GE(r->x, pane.x);
    EXPECT_GE(r->y, pane.y);
    EXPECT_LE(r->right(), pane.right());
    EXPECT_LE(r->bottom(), pane.bottom());
  }
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = i + 1; j < 6; ++j) {
      EXPECT_FALSE(ly::overlaps(*rects[i], *rects[j]))
          << "parts " << i << " and " << j << " overlap";
    }
  }
}

TEST(PaneLayoutTest, GeneTreeAlignsWithZoomView) {
  const auto parts = ly::layout_pane(Rect{0, 0, 500, 400}, ly::PaneConfig{});
  EXPECT_EQ(parts.gene_tree.y, parts.zoom_view.y);
  EXPECT_EQ(parts.gene_tree.height, parts.zoom_view.height);
  EXPECT_EQ(parts.annotations.y, parts.zoom_view.y);
}

TEST(PaneLayoutTest, TinyPaneDegradesGracefully) {
  const auto parts = ly::layout_pane(Rect{0, 0, 30, 20}, ly::PaneConfig{});
  // Whatever fits may be non-empty, but nothing may stick out, and the call
  // must not throw.
  EXPECT_TRUE(parts.zoom_view.empty() ||
              parts.zoom_view.right() <= 30);
  const auto none = ly::layout_pane(Rect{}, ly::PaneConfig{});
  EXPECT_TRUE(none.zoom_view.empty());
}

TEST(SplitPanesTest, EqualWidthsCoverCanvas) {
  const auto panes = ly::split_vertical_panes(1000, 500, 4, 10);
  ASSERT_EQ(panes.size(), 4u);
  long total = 0;
  for (const Rect& pane : panes) {
    EXPECT_EQ(pane.height, 500);
    total += pane.width;
  }
  EXPECT_EQ(total, 1000 - 3 * 10);
  // Panes are ordered and non-overlapping.
  for (std::size_t i = 1; i < panes.size(); ++i) {
    EXPECT_EQ(panes[i].x, panes[i - 1].right() + 10);
  }
}

TEST(SplitPanesTest, RemainderSpreadsOverLeadingPanes) {
  const auto panes = ly::split_vertical_panes(103, 50, 4, 1);
  // usable = 100 -> widths 25 each; with remainder 0.
  EXPECT_EQ(panes[0].width + panes[1].width + panes[2].width +
                panes[3].width,
            100);
  const auto uneven = ly::split_vertical_panes(102, 50, 4, 0);
  EXPECT_EQ(uneven[0].width, 26);  // 102 = 25*4 + 2 -> first two get +1
  EXPECT_EQ(uneven[1].width, 26);
  EXPECT_EQ(uneven[2].width, 25);
}

TEST(SplitPanesTest, InvalidArgsThrow) {
  EXPECT_THROW(ly::split_vertical_panes(100, 100, 0, 0),
               fv::InvalidArgument);
  EXPECT_THROW(ly::split_vertical_panes(10, 100, 20, 0),
               fv::InvalidArgument);
  EXPECT_THROW(ly::split_vertical_panes(100, 100, 2, -1),
               fv::InvalidArgument);
}

// Property sweep: pane splitting always tiles the canvas exactly for many
// (width, count, gap) combinations.
class SplitPanesPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(SplitPanesPropertyTest, TilesExactly) {
  const auto [width, count, gap] = GetParam();
  const long total_gap = static_cast<long>(gap) * (count - 1);
  if (width - total_gap < count) GTEST_SKIP() << "infeasible combination";
  const auto panes = ly::split_vertical_panes(width, 100,
                                              static_cast<std::size_t>(count),
                                              gap);
  ASSERT_EQ(panes.size(), static_cast<std::size_t>(count));
  long cursor = 0;
  for (const Rect& pane : panes) {
    EXPECT_EQ(pane.x, cursor);
    EXPECT_GE(pane.width, 1);
    cursor = pane.right() + gap;
  }
  EXPECT_EQ(cursor - gap, width);
}

INSTANTIATE_TEST_SUITE_P(
    Combos, SplitPanesPropertyTest,
    ::testing::Combine(::testing::Values(50, 100, 1023, 1920),
                       ::testing::Values(1, 2, 3, 7, 16),
                       ::testing::Values(0, 1, 5)));

}  // namespace
