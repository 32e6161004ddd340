#include "render/framebuffer.hpp"

#include <algorithm>
#include <type_traits>

#include "render/draw.hpp"
#include "util/error.hpp"
#include "util/table_io.hpp"

namespace fv::render {

Rgb8 lerp(Rgb8 a, Rgb8 b, double t) {
  t = std::clamp(t, 0.0, 1.0);
  const auto mix = [t](std::uint8_t from, std::uint8_t to) {
    return static_cast<std::uint8_t>(
        std::clamp(static_cast<double>(from) +
                       t * (static_cast<double>(to) - from),
                   0.0, 255.0));
  };
  return Rgb8{mix(a.r, b.r), mix(a.g, b.g), mix(a.b, b.b)};
}

std::span<Rgb8> PixelView::row(std::size_t y) const {
  FV_REQUIRE(y < height_, "row out of range");
  return {pixels_ + y * width_, width_};
}

void PixelView::set_clipped(long x, long y, Rgb8 color) const {
  if (x < 0 || y < 0 || static_cast<std::size_t>(x) >= width_ ||
      static_cast<std::size_t>(y) >= height_) {
    return;
  }
  pixels_[static_cast<std::size_t>(y) * width_ + static_cast<std::size_t>(x)] =
      color;
}

Framebuffer::Framebuffer(std::size_t width, std::size_t height, Rgb8 fill)
    : width_(width), height_(height), pixels_(width * height) {
  // The pixels start zeroed, which is kBlack.
  if (fill != colors::kBlack) clear(fill);
}

Rgb8 Framebuffer::at(std::size_t x, std::size_t y) const {
  FV_REQUIRE(x < width_ && y < height_, "pixel out of range");
  return pixels_[y * width_ + x];
}

void Framebuffer::set(std::size_t x, std::size_t y, Rgb8 color) {
  FV_REQUIRE(x < width_ && y < height_, "pixel out of range");
  pixels_[y * width_ + x] = color;
}

void Framebuffer::clear(Rgb8 color) {
  fill_rect(*this, 0, 0, static_cast<long>(width_), static_cast<long>(height_),
            color);
}

void Framebuffer::blit(const Framebuffer& source, long x, long y) {
  draw_image(*this, x, y, static_cast<long>(source.width_),
             static_cast<long>(source.height_), source.pixels_);
}

Framebuffer Framebuffer::crop(long x, long y, std::size_t width,
                              std::size_t height) const {
  Framebuffer out(width, height);
  // This buffer placed at (-x, -y) in the crop's coordinates.
  draw_image(out, -x, -y, static_cast<long>(width_),
             static_cast<long>(height_), pixels_);
  return out;
}

std::size_t Framebuffer::diff_count(const Framebuffer& other) const {
  FV_REQUIRE(width_ == other.width_ && height_ == other.height_,
             "framebuffer sizes differ");
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < pixels_.size(); ++i) {
    if (pixels_[i] != other.pixels_[i]) ++diffs;
  }
  return diffs;
}

std::string format_ppm(const Framebuffer& fb) {
  std::string out = "P6\n" + std::to_string(fb.width()) + " " +
                    std::to_string(fb.height()) + "\n255\n";
  // The pixel array is the P6 body: r, g, b bytes row by row.
  static_assert(sizeof(Rgb8) == 3 && std::is_trivially_copyable_v<Rgb8>);
  out.append(reinterpret_cast<const char*>(fb.pixels().data()),
             fb.pixel_count() * sizeof(Rgb8));
  return out;
}

void write_ppm(const Framebuffer& fb, const std::string& path) {
  write_text_file(path, format_ppm(fb));
}

Framebuffer parse_ppm(const std::string& content) {
  // Minimal P6 parser: magic, whitespace-separated dims and maxval, then raw
  // pixel bytes. Comment lines (#) are allowed in the header.
  std::size_t pos = 0;
  const auto next_token = [&]() -> std::string {
    while (pos < content.size()) {
      if (content[pos] == '#') {
        while (pos < content.size() && content[pos] != '\n') ++pos;
      } else if (std::isspace(static_cast<unsigned char>(content[pos]))) {
        ++pos;
      } else {
        break;
      }
    }
    const std::size_t start = pos;
    while (pos < content.size() &&
           !std::isspace(static_cast<unsigned char>(content[pos]))) {
      ++pos;
    }
    if (start == pos) throw ParseError("truncated PPM header");
    return content.substr(start, pos - start);
  };

  if (next_token() != "P6") throw ParseError("not a binary PPM (P6) file");
  const unsigned long width = std::stoul(next_token());
  const unsigned long height = std::stoul(next_token());
  const unsigned long maxval = std::stoul(next_token());
  if (maxval != 255) throw ParseError("only maxval 255 PPM is supported");
  ++pos;  // single whitespace after maxval
  const std::size_t needed = width * height * 3;
  if (content.size() - pos < needed) {
    throw ParseError("PPM pixel data truncated");
  }
  Framebuffer fb(width, height);
  for (std::size_t i = 0; i < width * height; ++i) {
    const Rgb8 pixel{static_cast<std::uint8_t>(content[pos + 3 * i]),
                     static_cast<std::uint8_t>(content[pos + 3 * i + 1]),
                     static_cast<std::uint8_t>(content[pos + 3 * i + 2])};
    fb.set(i % width, i / width, pixel);
  }
  return fb;
}

Framebuffer read_ppm(const std::string& path) {
  return parse_ppm(read_text_file(path));
}

}  // namespace fv::render
