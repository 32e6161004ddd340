// Dendrogram rasterization for the gene/array tree gutters of a pane.
#pragma once

#include "expr/tree.hpp"
#include "render/canvas.hpp"

namespace fv::render {

/// Draws `tree` into the rectangle (x, y, width, height) with leaves laid
/// out vertically: leaf i of the display order is centered at
/// y + (i + 0.5) * slot, where slot = total_height / leaf_count (fractional
/// slots are fine — whole-genome trees squeeze into a global-view strip).
/// Depth (merge similarity) maps linearly onto the horizontal extent —
/// similarity 1 at the leaf edge (right), the tree's deepest merge at the
/// far left (the root on monotone trees; possibly an interior node on the
/// inverted trees median/centroid linkage produces, whose inversions render
/// proportionally rather than clamped). All segments are axis-aligned,
/// TreeView style.
void draw_gene_dendrogram(Canvas& canvas, const expr::HierTree& tree, long x,
                          long y, long width, long total_height, Rgb8 color);

/// Horizontal variant for the array (column) tree: leaves laid out left to
/// right above the heatmap, depth mapping onto the vertical extent (leaves
/// at the bottom edge).
void draw_array_dendrogram(Canvas& canvas, const expr::HierTree& tree,
                           long x, long y, long total_width, long height,
                           Rgb8 color);

}  // namespace fv::render
