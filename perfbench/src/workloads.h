// The benchmark's named workloads: the generated world of each, how its
// offers are cut into Synthesize calls, and whether it exercises the
// snapshot warm-start path.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/replay.h"
#include "src/datagen/config.h"
#include "src/datagen/world.h"
#include "src/util/result.h"

namespace perfbench {

/// Worker threads of both phases (runtime_threads = offline_threads):
/// half the cores of a 4-core machine, one process.
inline constexpr size_t kThreads = 2;

/// Rounds of (cold learn, warm starts, passes) in a run: also the number
/// of cold learns behind setup_s.
inline constexpr size_t kRounds = 3;

/// Fewest warm starts, and fewest passes over the feed, in a run.
inline constexpr size_t kMinRepeats = 6;

struct Workload {
  std::string name;
  uint64_t default_seed = 0;
  prodsyn::WorldConfig world;  ///< `seed` is replaced by --seed
  /// Offers per Synthesize call; 0 sends the whole incoming feed at once.
  size_t batch_size = 0;
  /// Share of the --seconds window spent repeating warm LearnOffline
  /// calls from the published snapshot; the rest repeats passes of
  /// Synthesize calls over the incoming feed. Each runs at least
  /// kMinRepeats times over the run.
  double warm_share = 0.0;
};

/// All workloads, in BENCHMARK.json order.
const std::vector<Workload>& Workloads();

/// The workload named `name`, or null.
const Workload* FindWorkload(const std::string& name);

/// Cuts the world's incoming offers into Synthesize inputs of
/// `batch_size` offers (0 = one batch), in generation order. Built once,
/// before any timing.
prodsyn::Result<std::vector<Batch>> MakeBatches(const prodsyn::World& world,
                                                size_t batch_size);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
