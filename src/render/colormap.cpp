#include "render/colormap.hpp"

#include "util/error.hpp"

namespace fv::render {

namespace {

std::uint32_t channel_mask(Rgb8 color) {
  return (color.r != 0 ? 0xFFu : 0u) | (color.g != 0 ? 0xFF00u : 0u) |
         (color.b != 0 ? 0xFF0000u : 0u);
}

}  // namespace

ExpressionColormap::ExpressionColormap(ColorScheme scheme, double contrast)
    : scheme_(scheme), contrast_(contrast) {
  FV_REQUIRE(contrast > 0.0, "colormap contrast must be positive");
  switch (scheme_) {
    case ColorScheme::kRedGreen:
      positive_mask_ = channel_mask(colors::kRed);
      negative_mask_ = channel_mask(colors::kGreen);
      return;
    case ColorScheme::kBlueYellow:
      positive_mask_ = channel_mask(colors::kYellow);
      negative_mask_ = channel_mask(colors::kBlue);
      return;
    case ColorScheme::kGrayscale:
      // -contrast -> black, 0 -> mid gray, +contrast -> white.
      positive_mask_ = negative_mask_ = channel_mask(colors::kWhite);
      return;
  }
  FV_REQUIRE(false, "unknown color scheme");
}

ExpressionColormap ExpressionColormap::with_contrast(double contrast) const {
  return ExpressionColormap(scheme_, contrast);
}

}  // namespace fv::render
