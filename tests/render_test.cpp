// Tests for the software rasterizer: framebuffer, primitives, font,
// colormaps, the global-view strip and dendrograms.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>
#include <string>
#include <string_view>
#include <utility>

#include "expr/tree.hpp"
#include "render/colormap.hpp"
#include "render/dendrogram.hpp"
#include "render/draw.hpp"
#include "render/font.hpp"
#include "render/framebuffer.hpp"
#include "render/heatmap.hpp"
#include "stats/descriptive.hpp"
#include "util/error.hpp"

namespace {

namespace rd = fv::render;
using rd::Framebuffer;
using rd::Rgb8;

std::size_t count_pixels(const Framebuffer& fb, Rgb8 color) {
  std::size_t n = 0;
  for (const Rgb8& p : fb.pixels()) {
    if (p == color) ++n;
  }
  return n;
}

/// A width x height framebuffer of random pixels, so a kernel that skips a
/// pixel it should write leaves a visible difference.
Framebuffer noise_framebuffer(std::size_t width, std::size_t height,
                              std::mt19937& rng) {
  Framebuffer fb(width, height);
  for (std::size_t y = 0; y < height; ++y) {
    for (std::size_t x = 0; x < width; ++x) {
      const auto bits = static_cast<std::uint32_t>(rng());
      fb.set(x, y,
             Rgb8{static_cast<std::uint8_t>(bits),
                  static_cast<std::uint8_t>(bits >> 8),
                  static_cast<std::uint8_t>(bits >> 16)});
    }
  }
  return fb;
}

TEST(FramebufferTest, ConstructionAndFill) {
  Framebuffer fb(10, 5, rd::colors::kBlue);
  EXPECT_EQ(fb.width(), 10u);
  EXPECT_EQ(fb.height(), 5u);
  EXPECT_EQ(count_pixels(fb, rd::colors::kBlue), 50u);
}

TEST(FramebufferTest, ConstructionAndClearFillEveryPixel) {
  const Rgb8 teal{0, 128, 128};
  std::mt19937 rng(25);
  for (const auto [width, height] :
       {std::pair<std::size_t, std::size_t>{1, 1}, {1, 9}, {9, 1}, {13, 7},
        {37, 23}, {0, 5}, {5, 0}}) {
    const std::size_t n = width * height;
    EXPECT_EQ(count_pixels(Framebuffer(width, height), rd::colors::kBlack), n);
    EXPECT_EQ(count_pixels(Framebuffer(width, height, teal), teal), n);
    Framebuffer fb = noise_framebuffer(width, height, rng);
    fb.clear(teal);
    EXPECT_EQ(count_pixels(fb, teal), n) << width << "x" << height;
    fb.clear(rd::colors::kBlack);
    EXPECT_EQ(fb, Framebuffer(width, height)) << width << "x" << height;
  }
}

TEST(FramebufferTest, SetGetAndBounds) {
  Framebuffer fb(4, 4);
  fb.set(3, 2, rd::colors::kRed);
  EXPECT_EQ(fb.at(3, 2), rd::colors::kRed);
  EXPECT_THROW(fb.at(4, 0), fv::InvalidArgument);
  EXPECT_THROW(fb.set(0, 4, rd::colors::kRed), fv::InvalidArgument);
}

TEST(FramebufferTest, ClippedWritesIgnoreOutOfRange) {
  Framebuffer fb(4, 4);
  const rd::PixelView view(fb);
  view.set_clipped(-1, 0, rd::colors::kRed);
  view.set_clipped(0, 100, rd::colors::kRed);
  EXPECT_EQ(count_pixels(fb, rd::colors::kRed), 0u);
}

TEST(FramebufferTest, BlitPlacesAndClips) {
  Framebuffer src(3, 3, rd::colors::kGreen);
  Framebuffer dst(5, 5);
  dst.blit(src, 3, 3);  // bottom-right corner; partially clipped
  EXPECT_EQ(count_pixels(dst, rd::colors::kGreen), 4u);
  EXPECT_EQ(dst.at(4, 4), rd::colors::kGreen);
  EXPECT_EQ(dst.at(2, 2), rd::colors::kBlack);
}

TEST(FramebufferTest, CropExtractsRegion) {
  Framebuffer fb(6, 6);
  rd::fill_rect(fb, 2, 2, 2, 2, rd::colors::kYellow);
  const Framebuffer crop = fb.crop(2, 2, 2, 2);
  EXPECT_EQ(count_pixels(crop, rd::colors::kYellow), 4u);
}

TEST(FramebufferTest, DiffCountMatchesChanges) {
  Framebuffer a(4, 4), b(4, 4);
  EXPECT_EQ(a.diff_count(b), 0u);
  b.set(0, 0, rd::colors::kRed);
  b.set(3, 3, rd::colors::kRed);
  EXPECT_EQ(a.diff_count(b), 2u);
  Framebuffer c(3, 3);
  EXPECT_THROW(a.diff_count(c), fv::InvalidArgument);
}

TEST(PpmTest, RoundTripExact) {
  Framebuffer fb(7, 3);
  fb.set(0, 0, Rgb8{1, 2, 3});
  fb.set(6, 2, Rgb8{250, 128, 7});
  const Framebuffer parsed = rd::parse_ppm(rd::format_ppm(fb));
  EXPECT_EQ(parsed, fb);
}

TEST(PpmTest, RejectsMalformedHeaders) {
  EXPECT_THROW(rd::parse_ppm("P5\n1 1\n255\nx"), fv::ParseError);
  EXPECT_THROW(rd::parse_ppm("P6\n2 2\n255\nxx"), fv::ParseError);
}

TEST(DrawTest, FillRectClips) {
  Framebuffer fb(8, 8);
  rd::fill_rect(fb, -2, -2, 4, 4, rd::colors::kRed);
  EXPECT_EQ(count_pixels(fb, rd::colors::kRed), 4u);  // 2x2 visible corner
  rd::fill_rect(fb, 0, 0, 0, 5, rd::colors::kGreen);  // degenerate: no-op
  EXPECT_EQ(count_pixels(fb, rd::colors::kGreen), 0u);
}

TEST(DrawTest, RectOutlinePerimeter) {
  Framebuffer fb(10, 10);
  rd::draw_rect(fb, 1, 1, 5, 4, rd::colors::kWhite);
  // Perimeter of a 5x4 rect: 2*5 + 2*4 - 4 = 14 pixels.
  EXPECT_EQ(count_pixels(fb, rd::colors::kWhite), 14u);
}

TEST(DrawTest, HlineVlineInclusiveAndSwapped) {
  Framebuffer fb(10, 10);
  rd::draw_hline(fb, 7, 2, 3, rd::colors::kBlue);  // reversed endpoints
  EXPECT_EQ(count_pixels(fb, rd::colors::kBlue), 6u);
  rd::draw_vline(fb, 0, 8, 4, rd::colors::kGreen);
  EXPECT_EQ(count_pixels(fb, rd::colors::kGreen), 5u);
}

/// fill_rect one pixel at a time: every pixel of [x, x + width) x
/// [y, y + height) through set_clipped.
void reference_fill_rect(Framebuffer& fb, long x, long y, long width,
                         long height, Rgb8 color) {
  const rd::PixelView view(fb);
  for (long py = y; py < y + height; ++py) {
    for (long px = x; px < x + width; ++px) view.set_clipped(px, py, color);
  }
}

TEST(DrawTest, FillRectMatchesPerPixelReference) {
  std::mt19937 rng(2507);
  const auto pick = [&rng](long lo, long hi) {
    return std::uniform_int_distribution<long>(lo, hi)(rng);
  };
  std::size_t filled = 0;
  for (const auto [width, height] :
       {std::pair<long, long>{1, 1}, {1, 7}, {7, 1}, {13, 11}, {37, 23}}) {
    Framebuffer fb = noise_framebuffer(static_cast<std::size_t>(width),
                                       static_cast<std::size_t>(height), rng);
    Framebuffer want = fb;
    for (int i = 0; i < 400; ++i) {
      long x = pick(-width - 3, width + 3);
      long y = pick(-height - 3, height + 3);
      long w = pick(-3, width + 6);
      long h = pick(-3, height + 6);
      switch (i % 8) {
        case 0:  // the full frame
          x = 0, y = 0, w = width, h = height;
          break;
        case 1:  // one pixel wide
          w = 1;
          break;
        case 2:  // one pixel tall
          h = 1;
          break;
        default:
          break;
      }
      const Rgb8 color{static_cast<std::uint8_t>(i), 7,
                       static_cast<std::uint8_t>(255 - i)};
      rd::fill_rect(fb, x, y, w, h, color);
      reference_fill_rect(want, x, y, w, h, color);
      ASSERT_EQ(fb, want) << "fill_rect(" << x << ", " << y << ", " << w
                          << ", " << h << ") on " << width << "x" << height;
      ++filled;
    }
  }
  EXPECT_EQ(filled, 2000u);
}

// Exact arithmetic for the reference below, which forms sums of longs.
__extension__ typedef __int128 Wide;

/// `value` clamped to [-1, limit]: every coordinate outside a framebuffer
/// of that extent collapses onto one just outside it, so per-pixel loops
/// stay short and draw the same pixels.
long clamp_to_frame(Wide value, std::size_t limit) {
  return static_cast<long>(
      std::clamp<Wide>(value, -1, static_cast<Wide>(limit)));
}

TEST(DrawTest, ExtremeCoordinatesClipExactly) {
  constexpr long kMin = std::numeric_limits<long>::min();
  constexpr long kMax = std::numeric_limits<long>::max();
  constexpr long kHuge = long{1} << 62;
  const long values[] = {kMin,  kMin + 1, -kHuge, -kHuge + 5, -1,   0,
                         3,     22,       36,     37,         kHuge,
                         kHuge - 5, kMax - 1, kMax};
  std::mt19937 rng(37);
  const Framebuffer noise = noise_framebuffer(37, 23, rng);
  const std::size_t fw = noise.width();
  const std::size_t fh = noise.height();
  const Rgb8 color{1, 2, 3};
  const auto hline_ref = [&](Framebuffer& fb, long x0, long x1, long y) {
    x0 = clamp_to_frame(x0, fw);
    x1 = clamp_to_frame(x1, fw);
    y = clamp_to_frame(y, fh);
    const rd::PixelView view(fb);
    for (long x = std::min(x0, x1); x <= std::max(x0, x1); ++x) {
      view.set_clipped(x, y, color);
    }
  };
  const auto vline_ref = [&](Framebuffer& fb, long x, long y0, long y1) {
    x = clamp_to_frame(x, fw);
    y0 = clamp_to_frame(y0, fh);
    y1 = clamp_to_frame(y1, fh);
    const rd::PixelView view(fb);
    for (long y = std::min(y0, y1); y <= std::max(y0, y1); ++y) {
      view.set_clipped(x, y, color);
    }
  };
  std::size_t checked = 0;
  for (const long a : values) {
    for (const long b : values) {
      for (const long c : values) {
        Framebuffer got = noise;
        Framebuffer want = noise;
        rd::draw_hline(got, a, b, c, color);
        hline_ref(want, a, b, c);
        ASSERT_EQ(got, want) << "hline " << a << " " << b << " " << c;
        rd::draw_vline(got, a, b, c, color);
        vline_ref(want, a, b, c);
        ASSERT_EQ(got, want) << "vline " << a << " " << b << " " << c;
        for (const long d : values) {
          got = noise;
          want = noise;
          rd::fill_rect(got, a, b, c, d, color);
          if (c > 0 && d > 0) {
            const long x0 = clamp_to_frame(a, fw);
            const long y0 = clamp_to_frame(b, fh);
            reference_fill_rect(want, x0, y0,
                                clamp_to_frame(Wide{a} + c, fw) - x0,
                                clamp_to_frame(Wide{b} + d, fh) - y0, color);
          }
          ASSERT_EQ(got, want)
              << "fill_rect " << a << " " << b << " " << c << " " << d;
          rd::draw_rect(got, a, b, c, d, color);
          if (c > 0 && d > 0) {
            const long right = clamp_to_frame(Wide{a} + c - 1, fw);
            const long bottom = clamp_to_frame(Wide{b} + d - 1, fh);
            hline_ref(want, a, right, b);
            hline_ref(want, a, right, bottom);
            vline_ref(want, a, b, bottom);
            vline_ref(want, right, b, bottom);
          }
          ASSERT_EQ(got, want)
              << "draw_rect " << a << " " << b << " " << c << " " << d;
          ++checked;
        }
        // A small image anywhere, including where x + width overflows.
        for (const auto [w, h] : {std::pair<long, long>{5, 4}, {1, 1}}) {
          std::vector<Rgb8> image(static_cast<std::size_t>(w * h));
          for (std::size_t i = 0; i < image.size(); ++i) {
            image[i] = Rgb8{static_cast<std::uint8_t>(i), 9, 9};
          }
          got = noise;
          want = noise;
          rd::draw_image(got, a, b, w, h, image);
          for (long py = 0; py < h; ++py) {
            for (long px = 0; px < w; ++px) {
              const Wide x = Wide{a} + px;
              const Wide y = Wide{b} + py;
              if (x >= 0 && x < static_cast<Wide>(fw) && y >= 0 &&
                  y < static_cast<Wide>(fh)) {
                want.set(static_cast<std::size_t>(x),
                         static_cast<std::size_t>(y),
                         image[static_cast<std::size_t>(py * w + px)]);
              }
            }
          }
          ASSERT_EQ(got, want) << "draw_image " << a << " " << b;
        }
      }
    }
  }
  EXPECT_EQ(checked, std::size_t{14 * 14 * 14 * 14});
}

// Every kernel draws into a PixelView over a block in the middle of a
// larger buffer exactly what it draws into a Framebuffer of the block's
// size and pixels, and writes no guard pixel before or after the block.
TEST(PixelViewTest, KernelsDrawIntoASubBlockAsIntoAFramebuffer) {
  std::mt19937 rng(53);
  constexpr std::size_t kGuard = 97;
  const Rgb8 guard{7, 77, 177};
  std::size_t checked = 0;
  for (const auto [w, h] : {std::pair<std::size_t, std::size_t>{37, 23},
                            {1, 1},
                            {64, 5},
                            {5, 40}}) {
    const Framebuffer start = noise_framebuffer(w, h, rng);
    // From 20 px outside the view to 20 px past it.
    const auto coordinate = [&](std::size_t extent) {
      return static_cast<long>(rng() % (extent + 40)) - 20;
    };
    for (int round = 0; round < 150; ++round) {
      const long x = coordinate(w), y = coordinate(h);
      const long x1 = coordinate(w), y1 = coordinate(h);
      const long cw = static_cast<long>(rng() % 30) - 2;
      const long ch = static_cast<long>(rng() % 30) - 2;
      const auto bits = static_cast<std::uint32_t>(rng());
      const Rgb8 color{static_cast<std::uint8_t>(bits),
                       static_cast<std::uint8_t>(bits >> 8), 5};
      std::vector<Rgb8> image(
          static_cast<std::size_t>(std::max(cw, 0L) * std::max(ch, 0L)));
      for (std::size_t i = 0; i < image.size(); ++i) {
        image[i] = Rgb8{static_cast<std::uint8_t>(i), 3, 250};
      }
      const auto draw = [&](rd::PixelView target, int kernel) {
        switch (kernel) {
          case 0: rd::fill_rect(target, x, y, cw, ch, color); break;
          case 1: rd::draw_rect(target, x, y, cw, ch, color); break;
          case 2: rd::draw_hline(target, x, x1, y, color); break;
          case 3: rd::draw_vline(target, x, y, y1, color); break;
          case 4: rd::draw_text(target, x, y, "YAL01", color); break;
          default: rd::draw_image(target, x, y, cw, ch, image); break;
        }
      };
      for (int kernel = 0; kernel < 6; ++kernel) {
        Framebuffer want = start;
        draw(want, kernel);
        std::vector<Rgb8> buffer(kGuard + w * h + kGuard, guard);
        const auto block = buffer.begin() + kGuard;
        std::copy(start.pixels().begin(), start.pixels().end(), block);
        draw(rd::PixelView(&*block, w, h), kernel);
        ASSERT_TRUE(std::equal(want.pixels().begin(), want.pixels().end(),
                               block))
            << "kernel " << kernel << " at " << x << "," << y << " in " << w
            << "x" << h;
        ASSERT_EQ(std::count(buffer.begin(), block, guard), kGuard);
        ASSERT_EQ(std::count(block + static_cast<std::ptrdiff_t>(w * h),
                             buffer.end(), guard),
                  kGuard);
        ++checked;
      }
    }
    // A view checks its rows as a Framebuffer does.
    std::vector<Rgb8> pixels(w * h);
    const rd::PixelView view(pixels.data(), w, h);
    EXPECT_EQ(view.row(h - 1).data(), pixels.data() + (h - 1) * w);
    EXPECT_THROW(view.row(h), fv::InvalidArgument);
  }
  EXPECT_EQ(checked, 4u * 150u * 6u);
}

TEST(FontTest, KnownGlyphsExist) {
  for (char c : std::string("ABCXYZ0189-_.:()HSP26yal001c")) {
    EXPECT_TRUE(rd::has_glyph(c)) << "missing glyph for " << c;
  }
  EXPECT_FALSE(rd::has_glyph('~'));
}

TEST(FontTest, TextWidthFormula) {
  EXPECT_EQ(rd::text_width(""), 0);
  EXPECT_EQ(rd::text_width("A"), 5);
  EXPECT_EQ(rd::text_width("AB"), 11);
}

TEST(FontTest, DrawTextMarksPixels) {
  Framebuffer fb(40, 10);
  const long end = rd::draw_text(fb, 0, 0, "YAL", rd::colors::kWhite);
  EXPECT_EQ(end, 18);  // 3 glyphs * 6 advance
  EXPECT_GT(count_pixels(fb, rd::colors::kWhite), 20u);
}

/// The per-pixel text loop draw_text replaced: every font pixel written
/// through set_clipped. Only valid for coordinates whose glyph arithmetic
/// does not overflow.
long reference_text(Framebuffer& fb, long x, long y, std::string_view text,
                    Rgb8 color) {
  const rd::PixelView view(fb);
  long cursor = x;
  for (const char c : text) {
    const auto& rows = rd::glyph_rows(c);
    for (int gy = 0; gy < rd::kGlyphHeight; ++gy) {
      for (int gx = 0; gx < rd::kGlyphWidth; ++gx) {
        if ((rows[static_cast<std::size_t>(gy)] &
             (1u << (rd::kGlyphWidth - 1 - gx))) != 0) {
          view.set_clipped(cursor + gx, y + gy, color);
        }
      }
    }
    cursor += rd::kGlyphAdvance;
  }
  return cursor;
}

TEST(FontTest, DrawTextMatchesPerPixelReference) {
  std::mt19937 rng(0x7e47);
  // Glyphs with a lit left, right, top or bottom edge, a space, and '~',
  // which has no glyph and draws the fallback box.
  const std::string alphabet = "AHLT017-_.:( ~yq";
  const std::pair<std::size_t, std::size_t> sizes[] = {
      {1, 1}, {1, 9}, {7, 1}, {13, 11}, {37, 23}};
  std::size_t cases = 0, partly_drawn = 0;
  for (const auto& [width, height] : sizes) {
    const long w = static_cast<long>(width);
    const long h = static_cast<long>(height);
    constexpr long kReach = 8;  // a glyph's size, and a bit more
    for (int i = 0; i < 480; ++i) {
      std::string text(rng() % 7, ' ');
      for (char& c : text) c = alphabet[rng() % alphabet.size()];
      const long x =
          -2 * kReach +
          static_cast<long>(rng() % static_cast<unsigned>(w + 3 * kReach));
      const long y =
          -2 * kReach +
          static_cast<long>(rng() % static_cast<unsigned>(h + 3 * kReach));
      const Rgb8 color{static_cast<std::uint8_t>(rng()), 0, 7};
      Framebuffer drawn = noise_framebuffer(width, height, rng);
      Framebuffer expected = drawn;
      const Framebuffer before = drawn;
      ASSERT_EQ(rd::draw_text(drawn, x, y, text, color),
                reference_text(expected, x, y, text, color));
      ASSERT_EQ(drawn, expected) << "text '" << text << "' at (" << x
                                 << ", " << y << ") on " << width << "x"
                                 << height;
      ++cases;
      if (!(drawn == before)) ++partly_drawn;
    }
  }
  // Enough cases drew something for the comparison to mean something.
  EXPECT_EQ(cases, 5u * 480u);
  EXPECT_GT(partly_drawn, cases / 10);
}

TEST(FontTest, DrawTextAtExtremeCoordinatesDrawsNothingAndSaturates) {
  constexpr long kMax = std::numeric_limits<long>::max();
  constexpr long kMin = std::numeric_limits<long>::min();
  std::mt19937 rng(0xed9e);
  const Framebuffer noise = noise_framebuffer(37, 23, rng);
  struct Case {
    long x, y;
    long end;
  };
  constexpr long kAdvance = rd::kGlyphAdvance;
  for (const Case c : {Case{kMax - 3, 0, kMax},
                       Case{kMax, 0, kMax},
                       Case{kMin, 0, kMin + 5 * kAdvance},
                       Case{kMin, kMin, kMin + 5 * kAdvance},
                       Case{0, kMax, 5 * kAdvance},
                       Case{0, kMin, 5 * kAdvance},
                       Case{-5 * kAdvance, 0, 0},
                       Case{37, 0, 37 + 5 * kAdvance},
                       Case{0, 23, 5 * kAdvance},
                       Case{0, -rd::kGlyphHeight, 5 * kAdvance}}) {
    Framebuffer fb = noise;
    EXPECT_EQ(rd::draw_text(fb, c.x, c.y, "HELLO", rd::colors::kWhite),
              c.end);
    EXPECT_EQ(fb, noise) << "(" << c.x << ", " << c.y << ")";
  }
}

TEST(ColormapTest, RedGreenEndpoints) {
  const rd::ExpressionColormap map(rd::ColorScheme::kRedGreen, 2.0);
  EXPECT_EQ(map.map(0.0f), rd::colors::kBlack);
  EXPECT_EQ(map.map(2.0f), rd::colors::kRed);
  EXPECT_EQ(map.map(5.0f), rd::colors::kRed);  // saturates
  EXPECT_EQ(map.map(-2.0f), rd::colors::kGreen);
  EXPECT_EQ(map.map(fv::stats::missing_value()), rd::colors::kMissing);
}

TEST(ColormapTest, IntermediateValuesInterpolate) {
  const rd::ExpressionColormap map(rd::ColorScheme::kRedGreen, 2.0);
  const Rgb8 half = map.map(1.0f);
  EXPECT_GT(half.r, 100);
  EXPECT_LT(half.r, 160);
  EXPECT_EQ(half.g, 0);
}

TEST(ColormapTest, ContrastAdjustsSaturationPoint) {
  const rd::ExpressionColormap weak(rd::ColorScheme::kRedGreen, 4.0);
  const rd::ExpressionColormap strong = weak.with_contrast(1.0);
  EXPECT_LT(weak.map(1.0f).r, strong.map(1.0f).r);
  EXPECT_EQ(strong.map(1.0f), rd::colors::kRed);
}

TEST(ColormapTest, GrayscaleMonotone) {
  const rd::ExpressionColormap map(rd::ColorScheme::kGrayscale, 1.0);
  EXPECT_LT(map.map(-1.0f).r, map.map(0.0f).r);
  EXPECT_LT(map.map(0.0f).r, map.map(1.0f).r);
}

TEST(ColormapTest, InvalidContrastThrows) {
  EXPECT_THROW(rd::ExpressionColormap(rd::ColorScheme::kRedGreen, 0.0),
               fv::InvalidArgument);
}

TEST(GlobalViewTest, DownsamplesWithAveraging) {
  // Top half strongly positive, bottom half strongly negative: the global
  // view strip must show red above, green below.
  fv::expr::ExpressionMatrix m(20, 4);
  for (std::size_t r = 0; r < 20; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      m.set(r, c, r < 10 ? 2.0f : -2.0f);
    }
  }
  std::vector<std::size_t> order(20);
  for (std::size_t i = 0; i < 20; ++i) order[i] = i;
  const rd::ExpressionColormap map(rd::ColorScheme::kRedGreen, 2.0);
  std::vector<Rgb8> pixels;
  rd::global_view_pixels(m, order, map, 10, 10, pixels);
  ASSERT_EQ(pixels.size(), 100u);
  EXPECT_EQ(pixels[1 * 10 + 5], rd::colors::kRed);
  EXPECT_EQ(pixels[8 * 10 + 5], rd::colors::kGreen);
}

TEST(GlobalViewTest, EmptyInputPaintsMissing) {
  fv::expr::ExpressionMatrix m(0, 0);
  const rd::ExpressionColormap map;
  std::vector<Rgb8> pixels(3, rd::colors::kRed);
  rd::global_view_pixels(m, {}, map, 5, 5, pixels);
  ASSERT_EQ(pixels.size(), 25u);
  EXPECT_EQ(std::count(pixels.begin(), pixels.end(), rd::colors::kMissing),
            25);
}

/// The lerp-based colormap the branch-free inline `map` replaced: the
/// reference every byte of the inline one must match.
Rgb8 reference_map(const rd::ExpressionColormap& colormap, float value) {
  if (fv::stats::is_missing(value)) return rd::colors::kMissing;
  const double t = std::clamp(
      static_cast<double>(value) / colormap.contrast(), -1.0, 1.0);
  const double magnitude = std::abs(t);
  switch (colormap.scheme()) {
    case rd::ColorScheme::kRedGreen:
      return t >= 0.0 ? rd::lerp(rd::colors::kBlack, rd::colors::kRed,
                                 magnitude)
                      : rd::lerp(rd::colors::kBlack, rd::colors::kGreen,
                                 magnitude);
    case rd::ColorScheme::kBlueYellow:
      return t >= 0.0 ? rd::lerp(rd::colors::kBlack, rd::colors::kYellow,
                                 magnitude)
                      : rd::lerp(rd::colors::kBlack, rd::colors::kBlue,
                                 magnitude);
    case rd::ColorScheme::kGrayscale:
      return rd::lerp(rd::colors::kBlack, rd::colors::kWhite,
                      (t + 1.0) / 2.0);
  }
  return rd::colors::kBlack;
}

/// The global view box filter before it deduplicated repeated boxes: one
/// average and one colormap lookup per output pixel.
std::vector<Rgb8> reference_global_view(
    const fv::expr::ExpressionMatrix& matrix,
    std::span<const std::size_t> row_order,
    const rd::ExpressionColormap& colormap, std::size_t width,
    std::size_t height) {
  std::vector<Rgb8> pixels(width * height, rd::colors::kMissing);
  if (row_order.empty() || matrix.cols() == 0) return pixels;
  const std::size_t rows = row_order.size();
  const std::size_t cols = matrix.cols();
  for (std::size_t py = 0; py < height; ++py) {
    const std::size_t r0 = py * rows / height;
    const std::size_t r1 = std::max(r0 + 1, (py + 1) * rows / height);
    for (std::size_t px = 0; px < width; ++px) {
      const std::size_t c0 = px * cols / width;
      const std::size_t c1 = std::max(c0 + 1, (px + 1) * cols / width);
      double sum = 0.0;
      std::size_t present = 0;
      for (std::size_t r = r0; r < r1 && r < rows; ++r) {
        const auto values = matrix.row(row_order[r]);
        for (std::size_t c = c0; c < c1 && c < cols; ++c) {
          if (fv::stats::is_missing(values[c])) continue;
          sum += values[c];
          ++present;
        }
      }
      const float average =
          present > 0 ? static_cast<float>(sum / static_cast<double>(present))
                      : fv::stats::missing_value();
      pixels[py * width + px] = reference_map(colormap, average);
    }
  }
  return pixels;
}

constexpr rd::ColorScheme kSchemes[] = {rd::ColorScheme::kRedGreen,
                                        rd::ColorScheme::kBlueYellow,
                                        rd::ColorScheme::kGrayscale};

TEST(ColormapTest, InlineMapMatchesLerpReferenceEverywhere) {
  std::vector<float> inputs{0.0f,
                            -0.0f,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            std::numeric_limits<float>::max(),
                            std::numeric_limits<float>::lowest()};
  std::mt19937 rng(22);
  for (std::size_t i = 0; i < (std::size_t{1} << 20); ++i) {
    inputs.push_back(std::bit_cast<float>(static_cast<std::uint32_t>(rng())));
  }
  std::size_t checked = 0;
  for (const double contrast : {0.001, 0.5, 1.0, 2.0, 3.7}) {
    // Every level boundary k/255 of both magnitude maps, +-2 ulps, plus
    // uniform values across the whole unsaturated range.
    std::vector<float> near = inputs;
    const auto add_with_ulps = [&near](double value) {
      const float center = static_cast<float>(value);
      float down = center;
      float up = center;
      near.push_back(center);
      for (int ulp = 0; ulp < 2; ++ulp) {
        down = std::nextafter(down, -std::numeric_limits<float>::infinity());
        up = std::nextafter(up, std::numeric_limits<float>::infinity());
        near.push_back(down);
        near.push_back(up);
      }
    };
    for (int k = 0; k <= 255; ++k) {
      const double level = k / 255.0;
      add_with_ulps(level * contrast);
      add_with_ulps(-level * contrast);
      add_with_ulps((2.0 * level - 1.0) * contrast);  // grayscale
    }
    std::uniform_real_distribution<double> uniform(-1.5 * contrast,
                                                   1.5 * contrast);
    for (int i = 0; i < (1 << 16); ++i) {
      near.push_back(static_cast<float>(uniform(rng)));
    }
    for (const rd::ColorScheme scheme : kSchemes) {
      const rd::ExpressionColormap colormap(scheme, contrast);
      for (const float value : near) {
        const Rgb8 got = colormap.map(value);
        const Rgb8 want = reference_map(colormap, value);
        if (got != want) {
          ADD_FAILURE() << "scheme " << static_cast<int>(scheme)
                        << " contrast " << contrast << " value "
                        << std::bit_cast<std::uint32_t>(value) << " got ("
                        << int{got.r} << "," << int{got.g} << ","
                        << int{got.b} << ") want (" << int{want.r} << ","
                        << int{want.g} << "," << int{want.b} << ")";
          return;
        }
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, std::size_t{15} << 20);
}

/// A rows x cols matrix of values in [-3, 3] with some missing cells, some
/// -0 cells and some all-missing rows.
fv::expr::ExpressionMatrix random_matrix(std::size_t rows, std::size_t cols,
                                         std::mt19937& rng) {
  std::uniform_real_distribution<float> value(-3.0f, 3.0f);
  std::bernoulli_distribution missing(0.2);
  std::bernoulli_distribution negative_zero(0.05);
  std::bernoulli_distribution all_missing_row(0.05);
  fv::expr::ExpressionMatrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    const bool row_missing = all_missing_row(rng);
    for (std::size_t c = 0; c < cols; ++c) {
      float cell = value(rng);
      if (negative_zero(rng)) cell = -0.0f;
      m.set(r, c, row_missing || missing(rng) ? fv::stats::missing_value()
                                              : cell);
    }
  }
  return m;
}

TEST(GlobalViewTest, MatchesPerPixelReferenceBitForBit) {
  std::mt19937 rng(2022);
  const auto pick = [&rng](std::size_t lo, std::size_t hi) {
    return std::uniform_int_distribution<std::size_t>(lo, hi)(rng);
  };
  // Rows, columns, width and height each come out as 1, as at most half
  // the size they are drawn against, or as one to three times it: every
  // mix of down- and up-sampling on both axes.
  const auto size = [&](std::size_t variant, std::size_t other) {
    switch (variant % 3) {
      case 0:
        return std::size_t{1};
      case 1:
        return pick(1, std::max<std::size_t>(1, other / 2));
      default:
        return pick(other, 3 * other);
    }
  };
  std::size_t cases = 0;
  // Cases whose boxes are all one cell (upsampled or equal on both axes)
  // with a missing cell among those shown: the one-cell path's NaN case.
  std::size_t one_cell_cases_with_missing = 0;
  std::vector<Rgb8> pixels;
  for (std::size_t variant = 0; variant < 81 * 3; ++variant) {
    const std::size_t rows = size(variant, 60);
    const std::size_t cols = size(variant / 3, 40);
    const std::size_t height = size(variant / 9, rows);
    const std::size_t width = size(variant / 27, cols);
    const auto m = random_matrix(rows, cols, rng);
    // A shuffled display order, sometimes over only part of the rows.
    std::vector<std::size_t> order(rows);
    std::iota(order.begin(), order.end(), 0);
    std::shuffle(order.begin(), order.end(), rng);
    order.resize(pick(1, rows));
    const rd::ExpressionColormap colormap(kSchemes[variant / 81],
                                          0.25 + pick(0, 12) * 0.25);
    rd::global_view_pixels(m, order, colormap, width, height, pixels);
    ASSERT_EQ(pixels, reference_global_view(m, order, colormap, width, height))
        << rows << "x" << cols << " rows (" << order.size()
        << " shown) into " << width << "x" << height;
    if (height >= order.size() && width >= cols &&
        std::any_of(order.begin(), order.end(), [&](std::size_t r) {
          const auto row = m.row(r);
          return std::any_of(row.begin(), row.end(), fv::stats::is_missing);
        })) {
      ++one_cell_cases_with_missing;
    }
    ++cases;
  }
  EXPECT_EQ(cases, 243u);
  EXPECT_GE(one_cell_cases_with_missing, 20u);
}

TEST(GlobalViewTest, ReusedBufferMatchesFreshBuffer) {
  std::mt19937 rng(7);
  const auto m = random_matrix(50, 30, rng);
  std::vector<std::size_t> order(50);
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng);
  const rd::ExpressionColormap colormap(rd::ColorScheme::kBlueYellow, 1.5);
  const fv::expr::ExpressionMatrix empty(0, 0);
  struct Strip {
    const fv::expr::ExpressionMatrix* matrix;
    std::size_t width;
    std::size_t height;
    bool dirty;  ///< scribble over the buffer's whole capacity first
  };
  // Grow, shrink, equal size, dirty, and the missing-only empty input.
  const Strip strips[] = {{&m, 7, 9, false},    {&m, 61, 130, false},
                          {&m, 12, 20, false},  {&m, 12, 20, true},
                          {&m, 3, 200, true},   {&empty, 9, 9, true},
                          {&m, 30, 50, true}};
  std::vector<Rgb8> reused;
  for (const Strip& strip : strips) {
    if (strip.dirty) {
      reused.resize(reused.capacity());
      for (Rgb8& pixel : reused) {
        pixel = Rgb8{static_cast<std::uint8_t>(rng()), 1, 2};
      }
    }
    const std::span<const std::size_t> shown =
        strip.matrix->rows() == 0 ? std::span<const std::size_t>{}
                                  : std::span<const std::size_t>(order);
    std::vector<Rgb8> fresh;
    rd::global_view_pixels(*strip.matrix, shown, colormap, strip.width,
                           strip.height, fresh);
    rd::global_view_pixels(*strip.matrix, shown, colormap, strip.width,
                           strip.height, reused);
    ASSERT_EQ(reused, fresh) << strip.width << "x" << strip.height;
    ASSERT_EQ(fresh, reference_global_view(*strip.matrix, shown, colormap,
                                           strip.width, strip.height));
  }
}

TEST(DendrogramTest, DrawsConnectedTree) {
  fv::expr::HierTree tree(3);
  const int a = tree.add_node(0, 1, 0.9);
  tree.add_node(a, 2, 0.2);
  Framebuffer fb(40, 30);
  rd::FramebufferCanvas canvas(fb);
  rd::draw_gene_dendrogram(canvas, tree, 0, 0, 40, 30, rd::colors::kWhite);
  // Some pixels must be drawn, and leaf rows must each touch the right edge
  // region (leaves sit at depth 0 = right edge).
  EXPECT_GT(count_pixels(fb, rd::colors::kWhite), 20u);
  EXPECT_EQ(fb.at(39, 5), rd::colors::kWhite);   // leaf 0 (display slot 0)
  EXPECT_EQ(fb.at(39, 15), rd::colors::kWhite);  // leaf 1
  EXPECT_EQ(fb.at(39, 25), rd::colors::kWhite);  // leaf 2
}

TEST(DendrogramTest, ArrayVariantDraws) {
  fv::expr::HierTree tree(4);
  const int a = tree.add_node(0, 1, 0.8);
  const int b = tree.add_node(2, 3, 0.7);
  tree.add_node(a, b, 0.1);
  Framebuffer fb(40, 20);
  rd::FramebufferCanvas canvas(fb);
  rd::draw_array_dendrogram(canvas, tree, 0, 0, 40, 20, rd::colors::kWhite);
  EXPECT_GT(count_pixels(fb, rd::colors::kWhite), 20u);
  EXPECT_EQ(fb.at(5, 19), rd::colors::kWhite);  // leaf 0 at bottom edge
}

TEST(DendrogramTest, InvertedTreeRendersProportionally) {
  // Centroid/median trees can invert: here the root joins at similarity
  // -0.5 while its child merged at -1.0 (the child is the DEEPEST merge).
  // Depth must normalize against that deepest merge, so the child's
  // junction lands on the far-left edge and the root's strictly inside —
  // a clamping renderer would pile both onto the left edge.
  fv::expr::HierTree tree(3);
  const int child = tree.add_node(0, 1, -1.0);
  tree.add_node(child, 2, -0.5);
  Framebuffer fb(41, 30);
  rd::FramebufferCanvas canvas(fb);
  rd::draw_gene_dendrogram(canvas, tree, 0, 0, 41, 30, rd::colors::kWhite);
  // Child junction: depth (1 - (-1.0)) / 2.0 = 1.0 -> x = 0; its vertical
  // connector spans the leaf-0/leaf-1 centers (y = 5..15).
  EXPECT_EQ(fb.at(0, 10), rd::colors::kWhite);
  // Root junction: depth (1 - (-0.5)) / 2.0 = 0.75 -> x = 10; connector
  // spans the child junction (y = 10) to leaf 2 (y = 25).
  EXPECT_EQ(fb.at(10, 20), rd::colors::kWhite);
  // Nothing but the child junction may touch the left edge — the root
  // rendered to the RIGHT of its child (the inversion is visible).
  EXPECT_NE(fb.at(0, 20), rd::colors::kWhite);
}

TEST(DendrogramTest, TooSmallAreaThrows) {
  fv::expr::HierTree tree(2);
  tree.add_node(0, 1, 0.5);
  Framebuffer fb(10, 10);
  rd::FramebufferCanvas canvas(fb);
  EXPECT_THROW(
      rd::draw_gene_dendrogram(canvas, tree, 0, 0, 1, 2, rd::colors::kWhite),
      fv::InvalidArgument);
}

}  // namespace
