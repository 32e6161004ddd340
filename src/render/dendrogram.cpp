#include "render/dendrogram.hpp"

#include <algorithm>
#include <vector>

#include "util/error.hpp"

namespace fv::render {

namespace {

/// Per-node layout info accumulated bottom-up: the coordinate of the node's
/// junction along the leaf axis, and its depth coordinate along the other.
struct NodePosition {
  double along_leaves = 0.0;
  double depth = 0.0;  // 0 at leaves, 1 at the shallowest similarity
};

/// Computes positions for every node id. Leaf k of the display order sits at
/// slot k; an internal node sits midway between its children with depth
/// scaled by (1 - similarity) normalized to the deepest merge in the tree.
/// On monotone trees the deepest merge IS the root; on inverted
/// (median/centroid) trees an interior node can lie below the root, and
/// normalizing by the true minimum similarity renders the inversion
/// proportionally — the parent's junction lands to the leaf side of its
/// child's — instead of clamping both onto the far edge.
std::vector<NodePosition> layout_tree(const expr::HierTree& tree,
                                      double slot_size) {
  std::vector<NodePosition> positions(tree.node_count());
  const auto order = tree.leaf_order();
  for (std::size_t slot = 0; slot < order.size(); ++slot) {
    positions[order[slot]].along_leaves =
        (static_cast<double>(slot) + 0.5) * slot_size;
    positions[order[slot]].depth = 0.0;
  }
  if (tree.internal_count() == 0) return positions;
  double min_similarity = tree.node(tree.root()).similarity;
  for (std::size_t id = tree.leaf_count(); id < tree.node_count(); ++id) {
    min_similarity =
        std::min(min_similarity, tree.node(static_cast<int>(id)).similarity);
  }
  // Depth normalization: similarity 1 -> 0, deepest merge -> 1. Guard the
  // degenerate case of all merges at similarity 1.
  const double range = std::max(1e-9, 1.0 - min_similarity);
  for (std::size_t id = tree.leaf_count(); id < tree.node_count(); ++id) {
    const auto& node = tree.node(static_cast<int>(id));
    const auto& left = positions[static_cast<std::size_t>(node.left)];
    const auto& right = positions[static_cast<std::size_t>(node.right)];
    positions[id].along_leaves =
        (left.along_leaves + right.along_leaves) / 2.0;
    positions[id].depth =
        std::clamp((1.0 - node.similarity) / range, 0.0, 1.0);
  }
  return positions;
}

}  // namespace

void draw_gene_dendrogram(Canvas& canvas, const expr::HierTree& tree, long x,
                          long y, long width, long total_height, Rgb8 color) {
  FV_REQUIRE(width >= 2 && total_height >= 2, "dendrogram area too small");
  if (tree.node_count() == 0) return;
  const double slot =
      static_cast<double>(total_height) /
      static_cast<double>(std::max<std::size_t>(tree.leaf_count(), 1));
  const auto positions = layout_tree(tree, slot);
  // depth 0 (leaves) renders at the right edge; depth 1 at the left edge.
  const auto depth_to_x = [&](double depth) {
    return x + width - 1 - static_cast<long>(depth * (width - 1));
  };
  for (std::size_t id = tree.leaf_count(); id < tree.node_count(); ++id) {
    const auto& node = tree.node(static_cast<int>(id));
    const auto& me = positions[id];
    const long junction_x = depth_to_x(me.depth);
    for (const int child : {node.left, node.right}) {
      const auto& c = positions[static_cast<std::size_t>(child)];
      const long child_y = y + static_cast<long>(c.along_leaves);
      // Horizontal run from the child's depth to the junction depth...
      canvas.hline(depth_to_x(c.depth), junction_x, child_y, color);
    }
    // ...joined by a vertical connector at the junction depth.
    const long y_left =
        y + static_cast<long>(
                positions[static_cast<std::size_t>(node.left)].along_leaves);
    const long y_right =
        y + static_cast<long>(
                positions[static_cast<std::size_t>(node.right)].along_leaves);
    canvas.vline(junction_x, y_left, y_right, color);
  }
}

void draw_array_dendrogram(Canvas& canvas, const expr::HierTree& tree,
                           long x, long y, long total_width, long height,
                           Rgb8 color) {
  FV_REQUIRE(height >= 2 && total_width >= 2, "dendrogram area too small");
  if (tree.node_count() == 0) return;
  const double slot =
      static_cast<double>(total_width) /
      static_cast<double>(std::max<std::size_t>(tree.leaf_count(), 1));
  const auto positions = layout_tree(tree, slot);
  // depth 0 (leaves) at the bottom edge (nearest the heatmap below).
  const auto depth_to_y = [&](double depth) {
    return y + height - 1 - static_cast<long>(depth * (height - 1));
  };
  for (std::size_t id = tree.leaf_count(); id < tree.node_count(); ++id) {
    const auto& node = tree.node(static_cast<int>(id));
    const auto& me = positions[id];
    const long junction_y = depth_to_y(me.depth);
    for (const int child : {node.left, node.right}) {
      const auto& c = positions[static_cast<std::size_t>(child)];
      const long child_x = x + static_cast<long>(c.along_leaves);
      canvas.vline(child_x, depth_to_y(c.depth), junction_y, color);
    }
    const long x_left =
        x + static_cast<long>(
                positions[static_cast<std::size_t>(node.left)].along_leaves);
    const long x_right =
        x + static_cast<long>(
                positions[static_cast<std::size_t>(node.right)].along_leaves);
    canvas.hline(x_left, x_right, junction_y, color);
  }
}

}  // namespace fv::render
