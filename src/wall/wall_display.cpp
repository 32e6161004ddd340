#include "wall/wall_display.hpp"

#include <algorithm>
#include <thread>

#include "mpx/communicator.hpp"
#include "render/draw.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace fv::wall {

layout::Rect WallSpec::tile_rect(std::size_t index) const {
  FV_REQUIRE(index < tile_count(), "tile index out of range");
  const std::size_t col = index % tile_cols;
  const std::size_t row = index / tile_cols;
  return layout::Rect{static_cast<long>(col * tile_width),
                      static_cast<long>(row * tile_height),
                      static_cast<long>(tile_width),
                      static_cast<long>(tile_height)};
}

namespace {

using Clock = mpx::Comm::Clock;

// Wire tags. A work message names explicit tiles, so the master can re-send
// or re-assign any subset; shutdown is control traffic and is auto-exempted
// from fault injection so termination stays bounded even under 100% message
// loss on data tags.
constexpr int kTagPixels = 2;
constexpr int kTagWork = 4;
constexpr int kTagShutdown = 5;

/// Pause before the retry rung: gives a merely-slow node a chance.
constexpr std::chrono::milliseconds kRetryBackoff{5};

/// Smallest rectangle holding both.
layout::Rect bounding_box(const layout::Rect& a, const layout::Rect& b) {
  const long x = std::min(a.x, b.x);
  const long y = std::min(a.y, b.y);
  return layout::Rect{x, y, std::max(a.right(), b.right()) - x,
                      std::max(a.bottom(), b.bottom()) - y};
}

/// Rasterizes one tile of the command stream straight into its pixel reply,
/// [u64 tile][u64 executed][f64 seconds][pixel span] (deterministic — this
/// is what makes every recovery rung pixel-identical: any node, or the
/// master, can re-render any tile and produce the same bytes). The pixels
/// start zeroed, so the tile starts black as a new Framebuffer does;
/// seconds is the thread's CPU time for the raster.
std::vector<std::byte> raster_reply(const CommandList& commands,
                                    const WallSpec& spec, std::uint64_t tile) {
  const ThreadCpuTimer timer;
  const layout::Rect rect = spec.tile_rect(static_cast<std::size_t>(tile));
  const std::size_t count = spec.tile_width * spec.tile_height;
  mpx::PayloadWriter writer;
  writer.reserve(2 * sizeof(std::uint64_t) + sizeof(double) +
                 sizeof(std::uint64_t) + count * sizeof(render::Rgb8));
  writer.write(tile);
  const auto executed = writer.write_placeholder<std::uint64_t>();
  const auto seconds = writer.write_placeholder<double>();
  const std::span<render::Rgb8> pixels =
      writer.write_zeroed_span<render::Rgb8>(count);
  writer.fill(executed,
              replay_commands(render::PixelView(pixels.data(), spec.tile_width,
                                                spec.tile_height),
                              commands, rect.x, rect.y));
  writer.fill(seconds, timer.seconds());
  return writer.take();
}

/// `span` from now, or no deadline at all when the frame has none
/// (tile_deadline == 0: nothing can be lost, so nothing is waited out).
std::optional<Clock::time_point> deadline_after(const WallOptions& options,
                                                Clock::duration span) {
  if (options.tile_deadline.count() == 0) return std::nullopt;
  return Clock::now() + span;
}

/// Next message from `source` with `tag`: a blocking receive without a
/// deadline, otherwise nullopt once `until` passes.
std::optional<mpx::Message> receive(mpx::Comm& comm,
                                    std::optional<Clock::time_point> until,
                                    int source, int tag) {
  if (!until.has_value()) return comm.recv(source, tag);
  return comm.try_recv_until(*until, source, tag);
}

void run_master(mpx::Comm& comm, const CommandList& commands,
                const WallSpec& spec, const WallOptions& options,
                std::size_t node_count, FrameResult& result) {
  const std::size_t tile_count = spec.tile_count();
  const int ranks = static_cast<int>(node_count) + 1;
  std::vector<int> nodes;
  for (int node = 1; node < ranks; ++node) nodes.push_back(node);

  std::vector<char> done(tile_count, 0);
  std::vector<char> alive(static_cast<std::size_t>(ranks), 0);
  std::vector<double> raster_seconds(static_cast<std::size_t>(ranks), 0.0);
  std::size_t remaining = tile_count;

  // Destination of each tile still missing: the k-th of them, in tile
  // order, goes to pick(tile, k); composited tiles go nowhere.
  const auto route_pending = [&](const auto& pick) {
    std::vector<std::size_t> route(tile_count, kNoDestination);
    std::size_t k = 0;
    for (std::size_t tile = 0; tile < tile_count; ++tile) {
      if (!done[tile]) route[tile] = pick(tile, k++);
    }
    return route;
  };
  // Round-robin ownership: the first send and the retry route by it.
  const auto owner = [&](std::size_t tile, std::size_t) {
    return tile % node_count;
  };

  // Every rung that sends work splits the stream once over its
  // destinations (destination d is rank to[d]) and writes and sends one
  // work message at a time.
  const auto send_work = [&](const std::vector<std::size_t>& route,
                             const std::vector<int>& to) {
    const std::vector<WorkSplit> splits = split_work(commands, spec, route);
    for (std::size_t d = 0; d < splits.size(); ++d) {
      if (splits[d].tiles.empty()) continue;
      std::vector<std::byte> payload = write_work(commands, splits[d]);
      result.stats.bytes_distributed += payload.size();
      comm.send(to[d], kTagWork, std::move(payload));
    }
  };

  // Composites a pixel message (raster_reply's layout) straight from its
  // bytes. Stats count composited tiles only, so they are exact on every
  // frame; a late re-render of an already-composited tile is ignored.
  const auto composite = [&](std::span<const std::byte> message, int source) {
    mpx::PayloadReader reader(message);
    const auto tile = static_cast<std::size_t>(reader.read<std::uint64_t>());
    const auto executed = reader.read<std::uint64_t>();
    const auto seconds = reader.read<double>();
    const auto pixels = reader.read_span<render::Rgb8>();
    FV_ASSERT(tile < tile_count, "tile index out of range");
    if (done[tile]) return;
    const layout::Rect rect = spec.tile_rect(tile);
    render::draw_image(result.frame, rect.x, rect.y, rect.width, rect.height,
                       pixels);
    done[tile] = 1;
    --remaining;
    result.stats.commands_executed += static_cast<std::size_t>(executed);
    raster_seconds[static_cast<std::size_t>(source)] += seconds;
  };

  // Drains pixel messages until every tile landed or the window closes
  // (without a deadline the first call drains them all, so no later rung
  // fires). Corrupt messages are dropped (their tiles stay pending — the
  // ladder recovers them); duplicates are suppressed by the mailbox.
  const auto collect = [&](std::optional<Clock::time_point> until) {
    while (remaining > 0) {
      std::optional<mpx::Message> message;
      try {
        message = receive(comm, until, mpx::kAnySource, kTagPixels);
      } catch (const CorruptMessageError&) {
        ++result.stats.corrupt_messages;
        continue;
      }
      if (!message.has_value()) return;
      alive[static_cast<std::size_t>(message->source)] = 1;
      composite(message->payload, message->source);
    }
  };

  send_work(route_pending(owner), nodes);
  // The nodes raster while the master builds the frame they land in.
  result.frame = render::Framebuffer(spec.total_width(), spec.total_height());

  // Rung 1: the healthy window.
  collect(deadline_after(options, options.tile_deadline));

  // Rung 2: one bounded retry — resend each missing tile's command
  // substream to its owner node after a backoff (a slow node gets a second
  // chance; a dead one will miss this window too).
  if (remaining > 0) {
    result.stats.degraded = true;
    result.stats.retries += remaining;
    std::this_thread::sleep_for(kRetryBackoff);
    send_work(route_pending(owner), nodes);
    collect(deadline_after(options, options.tile_deadline));
  }

  // Rung 3: reassign orphaned tiles round-robin to nodes that have proven
  // alive (they delivered at least one pixel message this frame).
  if (remaining > 0) {
    std::vector<int> survivors;
    for (const int node : nodes) {
      if (alive[static_cast<std::size_t>(node)]) survivors.push_back(node);
    }
    if (!survivors.empty()) {
      result.stats.degraded = true;
      result.stats.reassigned_tiles += remaining;
      send_work(route_pending([&](std::size_t, std::size_t k) {
                  return k % survivors.size();
                }),
                survivors);
      collect(deadline_after(options, options.tile_deadline));
    }
  }

  // Rung 4: the master does a node's work on whatever is still missing:
  // it splits off those tiles' work message and rasters it itself. Tile
  // rasterization is deterministic, so this is pixel-identical to what the
  // lost node would have produced — the frame completes, always.
  if (remaining > 0) {
    result.stats.degraded = true;
    result.stats.master_rastered_tiles += remaining;
    const std::vector<WorkSplit> splits = split_work(
        commands, spec,
        route_pending([](std::size_t, std::size_t) { return std::size_t{0}; }));
    raster_work(write_work(commands, splits.front()), spec,
                [&](std::vector<std::byte> message) {
                  composite(message, comm.rank());
                });
  }

  result.stats.max_node_render_seconds =
      *std::max_element(raster_seconds.begin(), raster_seconds.end());

  // Orderly shutdown (the control tag is fault-exempt, so this always
  // arrives; the node-side watchdog is only a backstop for a dead master).
  for (const int node : nodes) comm.send(node, kTagShutdown, {});
}

void run_node(mpx::Comm& comm, const WallSpec& spec,
              const WallOptions& options) {
  // Idle watchdog: if the master goes silent this long, assume the frame is
  // over (e.g. the shutdown message itself was lost to fault injection) and
  // exit — a node can never hang the group. Derived generously from the
  // master's ladder span: 4 windows + backoff + slack. Without a deadline
  // the node waits for shutdown unbounded, like the master waits for tiles.
  const auto watchdog = options.tile_deadline * 8 + kRetryBackoff * 4 +
                        std::chrono::milliseconds(250);
  for (;;) {
    std::optional<mpx::Message> message;
    try {
      message =
          receive(comm, deadline_after(options, watchdog), 0, mpx::kAnyTag);
    } catch (const CorruptMessageError&) {
      continue;  // a corrupt request is recovered by the master's ladder
    }
    if (!message.has_value() || message->tag == kTagShutdown) break;
    if (message->tag != kTagWork) continue;
    raster_work(message->payload, spec,
                [&](std::vector<std::byte> pixels) {
                  comm.send(0, kTagPixels, std::move(pixels));
                });
  }
}

}  // namespace

void raster_work(std::span<const std::byte> work, const WallSpec& spec,
                 const std::function<void(std::vector<std::byte>)>& reply) {
  mpx::PayloadReader reader(work);
  // The images borrow the message's bytes, so `work` outlives the rasters.
  const CommandList commands = read_commands(reader);
  for (const std::uint64_t tile : reader.read_vector<std::uint64_t>()) {
    reply(raster_reply(commands, spec, tile));
  }
}

std::vector<WorkSplit> split_work(
    const CommandList& commands, const WallSpec& spec,
    const std::vector<std::size_t>& destination_of_tile) {
  FV_REQUIRE(destination_of_tile.size() == spec.tile_count(),
             "a split routes every tile");
  std::size_t destinations = 0;
  for (const std::size_t d : destination_of_tile) {
    if (d != kNoDestination) destinations = std::max(destinations, d + 1);
  }
  std::vector<WorkSplit> splits(destinations);
  for (std::size_t tile = 0; tile < destination_of_tile.size(); ++tile) {
    const std::size_t d = destination_of_tile[tile];
    if (d == kNoDestination) continue;
    WorkSplit& split = splits[d];
    const layout::Rect rect = spec.tile_rect(tile);
    split.crop = split.tiles.empty() ? rect : bounding_box(split.crop, rect);
    split.tiles.push_back(tile);
  }
  for (WorkSplit& split : splits) {
    // The command count, the tile count and the tile ids.
    split.payload_bytes = (2 + split.tiles.size()) * sizeof(std::uint64_t);
  }
  // Empty tiles overlap nothing.
  if (spec.tile_width == 0 || spec.tile_height == 0) return splits;

  const auto width = static_cast<long>(spec.tile_width);
  const auto height = static_cast<long>(spec.tile_height);
  const auto cols = static_cast<long>(spec.tile_cols);
  const auto rows = static_cast<long>(spec.tile_rows);
  // The last command each destination took, so a command that overlaps
  // several of its tiles is taken once.
  std::vector<std::size_t> last(destinations, kNoDestination);
  for (std::size_t i = 0; i < commands.size(); ++i) {
    const layout::Rect bounds = commands[i].bounds();
    if (bounds.empty() || bounds.right() <= 0 || bounds.bottom() <= 0) {
      continue;
    }
    // The grid cells the bounds cover, clamped to the grid: exactly the
    // tiles whose rect layout::overlaps them.
    const long col0 = std::max(bounds.x, 0L) / width;
    const long row0 = std::max(bounds.y, 0L) / height;
    if (col0 >= cols || row0 >= rows) continue;
    const long col1 = std::min((bounds.right() - 1) / width, cols - 1);
    const long row1 = std::min((bounds.bottom() - 1) / height, rows - 1);
    for (long row = row0; row <= row1; ++row) {
      for (long col = col0; col <= col1; ++col) {
        const std::size_t d =
            destination_of_tile[static_cast<std::size_t>(row * cols + col)];
        if (d == kNoDestination || last[d] == i) continue;
        last[d] = i;
        WorkSplit& split = splits[d];
        split.commands.push_back(i);
        split.payload_bytes += wire_size(commands[i], split.crop);
      }
    }
  }
  return splits;
}

std::vector<std::byte> write_work(const CommandList& commands,
                                  const WorkSplit& split) {
  mpx::PayloadWriter writer;
  writer.reserve(split.payload_bytes);
  writer.write<std::uint64_t>(split.commands.size());
  for (const std::size_t i : split.commands) {
    write_command(writer, commands[i], split.crop);
  }
  writer.write<std::uint64_t>(split.tiles.size());
  for (const std::size_t tile : split.tiles) {
    writer.write<std::uint64_t>(static_cast<std::uint64_t>(tile));
  }
  std::vector<std::byte> payload = writer.take();
  FV_ASSERT(payload.size() == split.payload_bytes,
            "a work message is exactly the size its split computed");
  return payload;
}

render::Framebuffer render_reference(const CommandList& commands,
                                     std::size_t width, std::size_t height) {
  render::Framebuffer fb(width, height);
  replay_commands(fb, commands, 0, 0);
  return fb;
}

FrameResult render_wall_frame(const CommandList& commands,
                              const WallSpec& spec, std::size_t node_count) {
  WallOptions options;
  options.node_count = node_count;
  return render_wall_frame(commands, spec, options);
}

FrameResult render_wall_frame(const CommandList& commands,
                              const WallSpec& spec,
                              const WallOptions& options) {
  FV_REQUIRE(spec.tile_count() >= 1, "wall needs at least one tile");
  std::size_t node_count = options.node_count;
  if (node_count == 0) node_count = spec.tile_count();
  node_count = std::min(node_count, spec.tile_count());

  FV_REQUIRE(!options.faults.any() || options.tile_deadline.count() > 0,
             "fault injection requires a tile deadline: without one every "
             "wait is unbounded and a lost message would hang the frame");
  FV_REQUIRE(options.faults.crash_rank != 0,
             "rank 0 is the wall master and must survive the frame");

  FrameResult result;
  result.stats.commands_total = commands.size();
  result.stats.pixels = spec.total_pixels();

  Timer frame_timer;
  // Rank 0 = master (holds the command stream, composites); ranks 1..N are
  // the per-tile cluster nodes.
  mpx::FaultSpec faults = options.faults;
  faults.exempt_tags.push_back(kTagShutdown);
  mpx::run_group(
      static_cast<int>(node_count) + 1,
      [&](mpx::Comm& comm) {
        if (comm.rank() == 0) {
          run_master(comm, commands, spec, options, node_count, result);
        } else {
          run_node(comm, spec, options);
        }
      },
      faults);
  result.stats.total_seconds = frame_timer.seconds();
  return result;
}

}  // namespace fv::wall
