// perfbench: runs one named workload of the product-synthesis system,
// checks its outputs and prints its metrics. The last line of stdout is
// one JSON object: {"correct", "attempted", "failed", "metrics"}; the
// lines before it are human-readable notes ("perfbench: key=value").
//
//   perfbench --workload <catalog-wide|feed-stream|relearn> [--seed <n>]
//             [--seconds <s>] [--trace <0|1>] [--out-dir <dir>]
//
// Without --seed the workload's default seed is used.
//
// --trace 0 prints the end-to-end metrics, measured with all tracing
// off. --trace 1 repeats the same timed work with the program's tracer
// and scheduler accounting on, then replays one Synthesize and offline
// learning layer by layer, and prints the per-layer metrics; the span
// log is written to <out-dir>/perfbench-trace-<workload>-<seed>.json.
// Workloads are described in perfbench/WORKLOADS.md.

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "perfbench/src/measure.h"
#include "perfbench/src/replay.h"
#include "perfbench/src/workloads.h"
#include "src/datagen/world.h"
#include "src/eval/oracle.h"
#include "src/eval/synthesis_eval.h"
#include "src/pipeline/schema_reconciliation.h"
#include "src/pipeline/synthesizer.h"
#include "src/snapshot/reader.h"
#include "src/snapshot/writer.h"
#include "src/util/logging.h"
#include "src/util/sched_stats.h"
#include "src/util/trace.h"

namespace perfbench {
namespace {

using prodsyn::ProductSynthesizer;
using prodsyn::SynthesizedProduct;
using prodsyn::SynthesizerOptions;
using prodsyn::World;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  bool has_seed = false;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
      args->has_seed = true;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

void Note(const std::string& key, double value) {
  std::printf("perfbench: %s=%.6g\n", key.c_str(), value);
}

int64_t GaugeValue(const prodsyn::RegistrySnapshot& registry,
                   const std::string& name) {
  for (const auto& g : registry.gauges) {
    if (g.name == name) return g.value;
  }
  return 0;
}

// ----- Timed rounds ----------------------------------------------------------

// Options of every synthesizer the benchmark builds: kThreads for both
// phases, offline state persisted to `path`.
SynthesizerOptions SnapshotOptions(const std::string& path, bool load,
                                   bool save) {
  SynthesizerOptions options;
  options.runtime_threads = kThreads;
  options.offline_threads = kThreads;
  options.snapshot.path = path;
  options.snapshot.load_if_present = load;
  options.snapshot.save_after_learn = save;
  return options;
}

// Everything the timed rounds measure and keep for the checks.
struct Measured {
  Samples cold_s;  ///< cold LearnOffline walls (rebuild + publish)
  Samples warm_s;  ///< warm LearnOffline walls (snapshot load)
  Samples call_ms;        ///< every Synthesize call
  /// p95 call latency of each round: batch_p95_ms is their median, so
  /// one round that met a burst of load from other tenants does not set
  /// the tail of the whole run.
  Samples round_p95_ms;
  Samples pass_offers_s;  ///< offers per second of each pass over the feed
  size_t passes = 0;
  uint64_t corr_digest = 0;  ///< correspondences of the first cold learn
  std::vector<uint64_t> digests;  ///< products per batch, first pass
  /// Products of the first pass, per batch (the oracle judges them).
  std::vector<std::vector<SynthesizedProduct>> products;
  /// The last cold-learned instance (for the cold/warm and replay checks).
  std::unique_ptr<ProductSynthesizer> cold;
  // Scheduler gauges summed over every call (non-zero in traced runs).
  double busy_ms = 0.0, idle_ms = 0.0, queue_wait_ms = 0.0;
  Samples imbalance;  ///< runtime.offer_chain region, per call
};

// One cold LearnOffline on a fresh synthesizer: rebuilds from the feeds
// and publishes a snapshot to `path` (the write path, as a deployment
// with persistence configured runs it). It must publish and learn the
// same correspondences as every other cold learn.
void ColdLearn(const World& world, const std::string& path, Measured* m,
               Result* result) {
  std::remove(path.c_str());
  auto synth = std::make_unique<ProductSynthesizer>(
      &world.catalog, SnapshotOptions(path, false, true));
  const auto start = Clock::now();
  const prodsyn::Status status =
      synth->LearnOffline(world.historical_offers, world.historical_matches);
  const double wall = SecondsSince(start);
  result->Attempt(status.ok());
  if (!status.ok()) {
    std::cerr << "perfbench: cold LearnOffline: " << status.ToString() << "\n";
    return;
  }
  if (GaugeValue(synth->learning_stats().registry, "snapshot.saved") == 0) {
    result->Fail("cold LearnOffline did not publish its snapshot");
  }
  const uint64_t digest = DigestCorrespondences(synth->correspondences());
  if (m->cold == nullptr) {
    m->corr_digest = digest;
  } else if (digest != m->corr_digest) {
    result->Fail("cold LearnOffline repeats learned different mappings");
  }
  m->cold_s.Add(wall);
  m->cold = std::move(synth);
}

// Warm LearnOffline from the published snapshot (the read path), repeated
// until `budget_s` has elapsed and at least `min_repeats` ran. Each must
// take the snapshot path and restore the cold learn's mappings. Returns
// the last warm instance (null if none succeeded).
std::unique_ptr<ProductSynthesizer> WarmStarts(const World& world,
                                               const std::string& path,
                                               double budget_s,
                                               size_t min_repeats,
                                               Measured* m, Result* result) {
  std::unique_ptr<ProductSynthesizer> last;
  const auto window_start = Clock::now();
  for (size_t k = 0; k < min_repeats || SecondsSince(window_start) < budget_s;
       ++k) {
    auto synth = std::make_unique<ProductSynthesizer>(
        &world.catalog, SnapshotOptions(path, true, false));
    const auto start = Clock::now();
    const prodsyn::Status status =
        synth->LearnOffline(world.historical_offers, world.historical_matches);
    const double wall = SecondsSince(start);
    result->Attempt(status.ok());
    if (!status.ok()) continue;
    if (GaugeValue(synth->learning_stats().registry, "snapshot.loaded") == 0) {
      result->Fail("warm LearnOffline rebuilt instead of loading");
      continue;
    }
    if (DigestCorrespondences(synth->correspondences()) != m->corr_digest) {
      result->Fail("warm start restored different mappings");
      continue;
    }
    m->warm_s.Add(wall);
    last = std::move(synth);
  }
  return last;
}

// Closed loop, one caller: sends the batches in order, pass after pass,
// until `budget_s` has elapsed and at least `min_passes` ran. Every call
// must succeed, be complete, and reproduce the first pass's products for
// its batch.
void TimedLoop(ProductSynthesizer* synth, const std::vector<Batch>& batches,
               const prodsyn::LandingPageProvider& pages, double budget_s,
               size_t min_passes, Measured* m, Result* result) {
  size_t feed_offers = 0;
  for (const Batch& b : batches) feed_offers += b.store.size();
  m->digests.resize(batches.size());
  m->products.resize(batches.size());
  const auto loop_start = Clock::now();
  for (size_t pass = 0; pass < min_passes || SecondsSince(loop_start) < budget_s;
       ++pass) {
    const bool first = m->passes == 0;
    const auto pass_start = Clock::now();
    for (size_t b = 0; b < batches.size(); ++b) {
      const auto start = Clock::now();
      auto synthesized = synth->Synthesize(batches[b].store, pages);
      m->call_ms.Add(SecondsSince(start) * 1e3);
      const bool ok = synthesized.ok() && synthesized->complete;
      result->Attempt(ok);
      if (!ok) continue;
      const uint64_t digest = DigestProducts(synthesized->products);
      if (first) {
        m->digests[b] = digest;
        m->products[b] = std::move(synthesized->products);
      } else if (digest != m->digests[b]) {
        result->Fail("Synthesize output changed between calls");
      }
      const auto& reg = synthesized->stats.registry;
      m->busy_ms += GaugeValue(reg, "pool.worker.busy_ns") / 1e6;
      m->idle_ms += GaugeValue(reg, "pool.worker.idle_ns") / 1e6;
      m->queue_wait_ms += GaugeValue(reg, "pool.worker.queue_wait_ns") / 1e6;
      m->imbalance.Add(
          GaugeValue(reg, "region.runtime.offer_chain.imbalance_permille") /
          1e3);
    }
    m->pass_offers_s.Add(static_cast<double>(feed_offers) /
                         SecondsSince(pass_start));
    ++m->passes;
  }
}

// The timed part of a run, in kRounds rounds so that every median samples
// the whole run rather than one stretch of it: each round is one cold
// learn, then warm starts, then passes over the feed. The --seconds
// window is split between warm starts and passes by the workload's
// warm_share, and evenly across the rounds.
Measured RunRounds(const Workload& workload, const World& world,
                   const std::vector<Batch>& batches,
                   const std::string& snap_path, double seconds,
                   Result* result) {
  Measured m;
  const double warm_budget = workload.warm_share * seconds / kRounds;
  const double loop_budget = (seconds - workload.warm_share * seconds) / kRounds;
  const size_t min_per_round = (kMinRepeats + kRounds - 1) / kRounds;
  for (size_t round = 0; round < kRounds; ++round) {
    ColdLearn(world, snap_path, &m, result);
    if (m.cold == nullptr) return m;
    std::unique_ptr<ProductSynthesizer> warm = WarmStarts(
        world, snap_path, warm_budget, min_per_round, &m, result);
    // Serve from the warm-started instance (its learned state was just
    // checked against the cold learn's).
    ProductSynthesizer* serving = warm != nullptr ? warm.get() : m.cold.get();
    const size_t calls_before = m.call_ms.size();
    TimedLoop(serving, batches, world.pages, loop_budget, min_per_round, &m,
              result);
    m.round_p95_ms.Add(m.call_ms.Tail(calls_before).Quantile(0.95));
  }
  return m;
}

// ----- Output checks -------------------------------------------------------

struct Quality {
  double attribute_precision = 0.0;
  double product_precision = 0.0;
  double offer_coverage = 0.0;
};

// Oracle verdict on the first pass's products; batch offer ids are mapped
// back to the generated offers for coverage.
Quality JudgeProducts(const World& world, const std::vector<Batch>& batches,
                      const Measured& loop) {
  prodsyn::EvaluationOracle oracle(&world);
  prodsyn::SynthesisResult all;
  std::set<prodsyn::OfferId> covered;
  for (size_t b = 0; b < batches.size(); ++b) {
    for (const auto& product : loop.products[b]) {
      for (auto id : product.source_offers) {
        covered.insert(batches[b].world_ids[static_cast<size_t>(id)]);
      }
      all.products.push_back(product);
    }
  }
  const prodsyn::SynthesisQuality q = prodsyn::EvaluateSynthesis(all, oracle);
  Quality out;
  out.attribute_precision = q.attribute_precision;
  out.product_precision = q.product_precision;
  out.offer_coverage = static_cast<double>(covered.size()) /
                       static_cast<double>(world.incoming_offers.size());
  return out;
}

struct MappingQuality {
  double precision = 0.0;
  size_t correct = 0;
};

// Oracle verdict on the correspondences the reconciler applies (score
// above theta = 0.5), name identities excluded as in the paper's curves.
MappingQuality JudgeMappings(
    const World& world,
    const std::vector<prodsyn::AttributeCorrespondence>& corrs) {
  prodsyn::EvaluationOracle oracle(&world);
  MappingQuality out;
  size_t applied = 0;
  for (const auto& c : corrs) {
    if (c.score <= 0.5) continue;
    if (c.tuple.catalog_attribute == c.tuple.offer_attribute) continue;
    ++applied;
    if (oracle.IsCorrespondenceCorrect(c.tuple)) ++out.correct;
  }
  out.precision = applied == 0 ? 0.0
                               : static_cast<double>(out.correct) /
                                     static_cast<double>(applied);
  return out;
}

// ----- Traced replay (per-layer metrics) ---------------------------------

// Replays of each batch in a traced run. The 1-thread Synthesize calls
// and the replays alternate (S R S R S R S), so load from other tenants
// hits both sides of their difference alike; per-layer totals are per
// replay.
constexpr size_t kReplays = 3;

struct RuntimeReplay {
  ReplayCounts counts;  ///< of the first replay of every batch
  /// 1-thread Synthesize wall over all batches; per batch, the mean of
  /// its kReplays + 1 calls.
  double synth_1t_ms = 0.0;
};

// Runs every batch through 1-thread Synthesize calls and through the
// layer replay; all must reproduce the timed run's products exactly.
RuntimeReplay ReplayRuntime(const World& world, ProductSynthesizer* synth,
                            const std::vector<Batch>& batches,
                            const Measured& loop, SpanLog* log,
                            Result* result) {
  RuntimeReplay out;
  const prodsyn::SchemaReconciler reconciler(synth->correspondences());
  synth->set_runtime_threads(1);
  auto synthesize_1t = [&](size_t b) {
    const auto start = Clock::now();
    auto synthesized = synth->Synthesize(batches[b].store, world.pages);
    out.synth_1t_ms += SecondsSince(start) * 1e3 / (kReplays + 1);
    result->Attempt(synthesized.ok());
    if (synthesized.ok() &&
        DigestProducts(synthesized->products) != loop.digests[b]) {
      result->Fail("1-thread Synthesize differs from the timed run");
    }
  };
  for (size_t b = 0; b < batches.size(); ++b) {
    synthesize_1t(b);
    for (size_t k = 0; k < kReplays; ++k) {
      ReplayCounts again;
      auto replayed = ReplaySynthesize(
          world.catalog, synth->title_classifier(), reconciler, batches[b],
          world.pages, log, k == 0 ? &out.counts : &again);
      result->Attempt(replayed.ok());
      if (replayed.ok() && DigestProducts(*replayed) != loop.digests[b]) {
        result->Fail("layer replay differs from Synthesize");
      }
      synthesize_1t(b);
    }
  }
  synth->set_runtime_threads(kThreads);
  return out;
}

struct SnapshotIo {
  double save_ms = 0.0;
  double load_ms = 0.0;
  double bytes = 0.0;
};

// Times LoadOfflineSnapshot on the published file and SaveOfflineSnapshot
// of what it loaded (to a second path).
SnapshotIo TimeSnapshotIo(const std::string& path, Result* result) {
  SnapshotIo out;
  struct stat st {};
  if (stat(path.c_str(), &st) == 0) out.bytes = static_cast<double>(st.st_size);
  auto start = Clock::now();
  auto loaded = prodsyn::LoadOfflineSnapshot(path);
  out.load_ms = SecondsSince(start) * 1e3;
  result->Attempt(loaded.ok());
  if (!loaded.ok()) return out;
  const std::string copy = path + ".resave";
  start = Clock::now();
  const prodsyn::Status saved = prodsyn::SaveOfflineSnapshot(*loaded, copy);
  out.save_ms = SecondsSince(start) * 1e3;
  result->Attempt(saved.ok());
  std::remove(copy.c_str());
  return out;
}

// The --trace 1 part of a run: replays at 1 thread with one span per
// layer call, then the per-layer metrics. The span log is written to
// <out_dir>/perfbench-trace-<workload>-<seed>.json.
void TracedReplays(const Workload& workload, const World& world,
                   const std::vector<Batch>& batches, const Measured& m,
                   const std::string& snap_path, const std::string& out_dir,
                   uint64_t seed, Result* result) {
  SpanLog log;
  const RuntimeReplay rt =
      ReplayRuntime(world, m.cold.get(), batches, m, &log, result);
  auto offline_or = ReplayOffline(world, kThreads, &log);
  result->Attempt(offline_or.ok());
  const OfflineReplay offline =
      offline_or.ok() ? *offline_or : OfflineReplay{};
  if (offline_or.ok() && offline.correspondence_digest != m.corr_digest) {
    result->Fail("offline replay learned different mappings");
  }
  const SnapshotIo io = TimeSnapshotIo(snap_path, result);

  auto metric = [result](const std::string& name, double value,
                         const char* unit) {
    result->Metric(name, value, unit);
  };
  auto count = [&](const std::string& name, size_t value) {
    metric(name, static_cast<double>(value), "count");
  };
  // Total of one layer's spans per replay.
  auto total_ms = [&](const char* name) {
    return log.TotalMs(name) / kReplays;
  };
  // calls and total per replay, p50 / p99 over every call.
  auto layer = [&](const char* name, bool with_p50) {
    const Samples ns = log.DurationsNs(name);
    count(std::string(name) + ".calls", ns.size() / kReplays);
    metric(std::string(name) + ".total_ms", total_ms(name), "ms");
    if (with_p50) {
      metric(std::string(name) + ".p50_us", ns.Median() / 1e3, "us");
    }
    metric(std::string(name) + ".p99_us", ns.Quantile(0.99) / 1e3, "us");
  };
  layer("pipeline.classify", true);
  metric("pipeline.classify.accuracy",
         static_cast<double>(rt.counts.categorized_correctly) /
             static_cast<double>(rt.counts.offers),
         "ratio");
  layer("pipeline.extract", true);
  count("pipeline.extract.pairs_out", rt.counts.extracted_pairs);
  metric("pipeline.reconcile.total_ms", total_ms("pipeline.reconcile"), "ms");
  count("pipeline.reconcile.pairs_in", rt.counts.extracted_pairs);
  count("pipeline.reconcile.pairs_out", rt.counts.reconciled_pairs);
  metric("pipeline.cluster.total_ms", total_ms("pipeline.cluster"), "ms");
  count("pipeline.cluster.clusters", rt.counts.clusters);
  count("pipeline.cluster.offers_without_key", rt.counts.offers_without_key);
  layer("pipeline.fuse", false);
  double layers_ms = 0.0;
  for (const char* span : {"pipeline.classify", "pipeline.extract",
                           "pipeline.reconcile", "pipeline.cluster",
                           "pipeline.fuse"}) {
    layers_ms += total_ms(span);
  }
  metric("pipeline.synthesize.wall_1t_ms", rt.synth_1t_ms, "ms");
  metric("pipeline.synthesize.unattributed_ms", rt.synth_1t_ms - layers_ms,
         "ms");

  const double passes = static_cast<double>(m.passes);
  metric("util.pool.busy_ms", m.busy_ms / passes, "ms");
  metric("util.pool.idle_ms", m.idle_ms / passes, "ms");
  metric("util.pool.queue_wait_ms", m.queue_wait_ms / passes, "ms");
  metric("util.region.offer_chain.imbalance", m.imbalance.Median(), "ratio");

  metric("matching.bag_index.build_ms", offline.bag_build_ms, "ms");
  count("matching.bag_index.bags", offline.bags);
  count("matching.bag_index.candidates", offline.candidates);
  metric("matching.features.total_ms", offline.features_total_ms, "ms");
  metric("matching.features.p99_us", offline.features_p99_us, "us");
  metric("matching.generate_ms", offline.generate_ms, "ms");
  metric("matching.score_ms", offline.score_ms, "ms");
  metric("ml.lr.train_ms", offline.lr_train_ms, "ms");
  count("ml.lr.iterations", offline.lr_iterations);
  metric("ml.nb.train_ms", offline.nb_train_ms, "ms");
  metric("snapshot.save_ms", io.save_ms, "ms");
  metric("snapshot.load_ms", io.load_ms, "ms");
  metric("snapshot.bytes", io.bytes, "bytes");
  metric("pipeline.restore_ms", m.warm_s.Median() * 1e3 - io.load_ms, "ms");
  metric("overhead.traced_offers_per_s", m.pass_offers_s.Median(), "1/s");
  metric("overhead.traced_setup_s", m.cold_s.Median(), "s");

  // Layer shares, for the workload descriptions.
  Note("share.classify_of_synthesize_1t",
       total_ms("pipeline.classify") / rt.synth_1t_ms);
  Note("share.classify_of_layers", total_ms("pipeline.classify") / layers_ms);
  Note("share.extract_of_synthesize_1t",
       total_ms("pipeline.extract") / rt.synth_1t_ms);
  Note("share.extract_of_layers", total_ms("pipeline.extract") / layers_ms);
  Note("share.lr_train_of_generate", offline.lr_train_ms / offline.generate_ms);
  Note("share.bag_build_of_generate",
       offline.bag_build_ms / offline.generate_ms);

  const std::string trace_path = out_dir + "/perfbench-trace-" +
                                 workload.name + "-" + std::to_string(seed) +
                                 ".json";
  std::ofstream(trace_path) << log.ToChromeJson();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>]\n";
    return 2;
  }
  const Workload* workload = FindWorkload(args.workload);
  if (workload == nullptr) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  prodsyn::SetLogLevel(prodsyn::LogLevel::kWarning);

  // Inputs: generated from the seed, outside every metric.
  prodsyn::WorldConfig config = workload->world;
  config.seed = args.has_seed ? args.seed : workload->default_seed;
  auto start = Clock::now();
  auto generated = World::Generate(config);
  if (!generated.ok()) {
    std::cerr << "perfbench: datagen: " << generated.status().ToString()
              << "\n";
    return 1;
  }
  const World& world = *generated;
  auto batches_or = MakeBatches(world, workload->batch_size);
  if (!batches_or.ok()) {
    std::cerr << "perfbench: batches: " << batches_or.status().ToString()
              << "\n";
    return 1;
  }
  const std::vector<Batch>& batches = *batches_or;
  Note("datagen_s", SecondsSince(start));
  Note("seed", static_cast<double>(config.seed));
  Note("leaf_categories", static_cast<double>(world.category_instances.size()));
  Note("merchants", static_cast<double>(world.merchant_profiles.size()));
  Note("historical_offers", static_cast<double>(world.historical_offers.size()));
  Note("incoming_offers", static_cast<double>(world.incoming_offers.size()));
  Note("calls_per_pass", static_cast<double>(batches.size()));
  if (args.trace) {
    prodsyn::Tracer::Global().Enable();
    prodsyn::SchedulerStats::Enable();
  }
  const std::string snap_path = args.out_dir + "/perfbench-" +
                                workload->name + "-" +
                                std::to_string(config.seed) + ".snap";
  Result result;

  Measured m =
      RunRounds(*workload, world, batches, snap_path, args.seconds, &result);
  if (m.cold == nullptr) {
    std::cerr << "perfbench: no cold LearnOffline succeeded\n";
    return 1;
  }
  Note("training_examples",
       static_cast<double>(m.cold->learning_stats().training_examples));
  Note("lr_iterations",
       static_cast<double>(m.cold->learning_stats().lr_iterations));
  Note("cold_learns", static_cast<double>(m.cold_s.size()));
  Note("warm_starts", static_cast<double>(m.warm_s.size()));
  Note("passes", static_cast<double>(m.passes));
  Note("calls", static_cast<double>(m.call_ms.size()));
  // Reported, not gated: on a shared machine its run-to-run spread is too
  // close to the largest bound a metric may have (see WORKLOADS.md).
  Note("batch_p95_ms", m.round_p95_ms.Median());

  if (args.trace) {
    prodsyn::Tracer::Global().Disable();
    prodsyn::SchedulerStats::Disable();
  }

  // The cold instance must synthesize what the warm ones did.
  for (size_t b = 0; b < batches.size(); ++b) {
    auto cold = m.cold->Synthesize(batches[b].store, world.pages);
    result.Attempt(cold.ok());
    if (cold.ok() && DigestProducts(cold->products) != m.digests[b]) {
      result.Fail("cold and warm-started instances synthesize differently");
    }
  }

  if (!args.trace) {
    const Quality quality = JudgeProducts(world, batches, m);
    const MappingQuality mappings =
        JudgeMappings(world, m.cold->correspondences());
    result.Metric("offers_per_s", m.pass_offers_s.Median(), "1/s");
    result.Metric("batch_p50_ms", m.call_ms.Quantile(0.50), "ms");
    result.Metric("setup_s", m.cold_s.Median(), "s");
    result.Metric("warm_start_s", m.warm_s.Median(), "s");
    result.Metric("attribute_precision", quality.attribute_precision, "ratio");
    result.Metric("product_precision", quality.product_precision, "ratio");
    result.Metric("offer_coverage", quality.offer_coverage, "ratio");
    result.Metric("mapping_precision", mappings.precision, "ratio");
    result.Metric("mappings_correct", static_cast<double>(mappings.correct),
                  "count");
    result.Metric("peak_rss_mb", PeakRssMb(), "MiB");
  } else {
    TracedReplays(*workload, world, batches, m, snap_path, args.out_dir,
                  config.seed, &result);
  }
  std::remove(snap_path.c_str());

  std::cout << result.ToJson() << std::endl;
  return result.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
