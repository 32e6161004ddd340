#include "render/heatmap.hpp"

#include <algorithm>
#include <cstring>

#include "stats/descriptive.hpp"
#include "util/error.hpp"

namespace fv::render {

void global_view_pixels(const expr::ExpressionMatrix& matrix,
                        std::span<const std::size_t> row_order,
                        const ExpressionColormap& colormap, std::size_t width,
                        std::size_t height, std::vector<Rgb8>& pixels) {
  FV_REQUIRE(width > 0 && height > 0, "global view needs positive size");
  // Every pixel below is written, so what the buffer held before is never
  // read.
  pixels.resize(width * height);
  if (row_order.empty() || matrix.cols() == 0) {
    std::fill(pixels.begin(), pixels.end(), colors::kMissing);
    return;
  }
  const std::size_t rows = row_order.size();
  const std::size_t cols = matrix.cols();
  // Box-filter downsampling: output pixel (px, py) covers source rows
  // [py*rows/height, (py+1)*rows/height) and analogous columns, at least
  // one of each (so c0 < c1 <= cols and r0 < r1 <= rows). Upsampling
  // repeats a span or band in neighbouring pixels; each repeat is copied
  // instead of averaged and colored again.
  struct Span {
    std::size_t c0;
    std::size_t c1;
  };
  std::vector<Span> spans(width);
  for (std::size_t px = 0; px < width; ++px) {
    const std::size_t c0 = px * cols / width;
    spans[px] = {c0, std::max(c0 + 1, (px + 1) * cols / width)};
  }
  std::vector<const float*> band;
  std::size_t band_r0 = 0;
  std::size_t band_r1 = 0;
  for (std::size_t py = 0; py < height; ++py) {
    const std::size_t r0 = py * rows / height;
    const std::size_t r1 = std::max(r0 + 1, (py + 1) * rows / height);
    Rgb8* out = pixels.data() + py * width;
    if (py > 0 && r0 == band_r0 && r1 == band_r1) {
      std::memcpy(out, out - width, width * sizeof(Rgb8));
      continue;
    }
    band_r0 = r0;
    band_r1 = r1;
    band.clear();
    for (std::size_t r = r0; r < r1; ++r) {
      band.push_back(matrix.row(row_order[r]).data());
    }
    for (std::size_t px = 0; px < width; ++px) {
      const Span span = spans[px];
      if (px > 0 && span.c0 == spans[px - 1].c0 &&
          span.c1 == spans[px - 1].c1) {
        out[px] = out[px - 1];
        continue;
      }
      if (band.size() == 1 && span.c1 - span.c0 == 1) {
        // A one-cell box averages to its own value (NaN stays missing).
        out[px] = colormap.map(band.front()[span.c0]);
        continue;
      }
      // Rows outer, columns inner, accumulated in double: the order and
      // rounding every pixel's bytes are pinned to.
      double sum = 0.0;
      std::size_t present = 0;
      for (const float* values : band) {
        for (std::size_t c = span.c0; c < span.c1; ++c) {
          if (stats::is_missing(values[c])) continue;
          sum += values[c];
          ++present;
        }
      }
      const float average =
          present > 0 ? static_cast<float>(sum / static_cast<double>(present))
                      : stats::missing_value();
      out[px] = colormap.map(average);
    }
  }
}

}  // namespace fv::render
