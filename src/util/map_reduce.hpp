#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

/// \file map_reduce.hpp
/// \brief Deterministic parallel map-reduce over an index space.
///
/// Every Monte-Carlo engine in this repository has the same shape: fan N
/// independent items over the thread pool, hand item i its own
/// `Rng::for_stream` stream, park results in an item-indexed slot vector,
/// and reduce them *in item order* on the calling thread.  That construction
/// makes the outcome bit-identical for any thread count (including 1) no
/// matter how the pool schedules the items.  `map_reduce` is that shape
/// written once, and `sim::Experiment`, the one Monte-Carlo fan-out, is a
/// thin layer over it.
///
/// Determinism contract:
///  * item i's randomness comes only from `Rng::for_stream(seed, stream(i))`
///    where `stream(i)` depends only on i, never on scheduling;
///  * `map` must not touch shared mutable state;
///  * `reduce` runs serially on the calling thread, in ascending item order.
///
/// Sharding: `stream_offset` (or the `stream_of` override) decouples the
/// local item index from the global stream index, so a process that runs
/// items [0, count) of a larger [0, total) space still draws the *global*
/// streams.  This is the primitive behind `sim::Experiment`'s trial-range
/// sharding: k processes each run a slice and their merged output is
/// bit-identical to one process running everything.

namespace minim::util {

struct MapReduceOptions {
  std::uint64_t seed = 0;   ///< master seed; items derive streams from it
  std::size_t threads = 0;  ///< 0 = hardware concurrency, 1 = serial (no pool)
  std::uint64_t stream_offset = 0;  ///< stream index of item 0
  /// Optional item -> stream mapping; overrides `stream_offset + i` when set
  /// (used when a shard's items are not contiguous in stream space).
  std::function<std::uint64_t(std::size_t)> stream_of;
};

/// Applies `map(i, rng)` to every item in [0, count) across a thread pool,
/// then calls `reduce(i, std::move(result_i))` serially on the calling
/// thread in ascending item order.  Bit-identical for any thread count by
/// construction.  The first exception thrown by any `map` is rethrown.
template <typename MapFn, typename ReduceFn>
void map_reduce(std::size_t count, const MapReduceOptions& options, MapFn&& map,
                ReduceFn&& reduce) {
  using R = std::invoke_result_t<MapFn&, std::size_t, Rng&>;
  static_assert(!std::is_void_v<R>, "map must return a value to reduce");

  std::vector<std::optional<R>> slots(count);
  auto run_one = [&](std::size_t i) {
    const std::uint64_t stream =
        options.stream_of ? options.stream_of(i) : options.stream_offset + i;
    Rng rng = Rng::for_stream(options.seed, stream);
    slots[i].emplace(map(i, rng));
  };

  if (options.threads == 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) run_one(i);
  } else {
    ThreadPool pool(options.threads);
    pool.parallel_for(count, run_one);
  }

  for (std::size_t i = 0; i < count; ++i) reduce(i, std::move(*slots[i]));
}

}  // namespace minim::util
