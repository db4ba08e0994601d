// Traced replays: re-execute one Synthesize, and offline learning, by
// calling each layer's public functions in the order the program calls
// them, with a span around every call. The replays run on one thread and
// are never part of an end-to-end metric.

#ifndef PERFBENCH_SRC_REPLAY_H_
#define PERFBENCH_SRC_REPLAY_H_

#include <string>
#include <vector>

#include "perfbench/src/measure.h"
#include "src/datagen/world.h"
#include "src/pipeline/synthesizer.h"

namespace perfbench {

/// One Synthesize input: an OfferStore plus, per offer, its id in the
/// generated world and its true category (the checker's view).
struct Batch {
  prodsyn::OfferStore store;
  std::vector<prodsyn::OfferId> world_ids;
  std::vector<prodsyn::CategoryId> true_category;
};

/// Counts accumulated by the run-time replay across batches.
struct ReplayCounts {
  size_t offers = 0;
  size_t categorized_correctly = 0;  ///< category entering extraction
  size_t extracted_pairs = 0;
  size_t reconciled_pairs = 0;
  size_t clusters = 0;
  size_t offers_without_key = 0;
};

/// Replays Synthesize on `batch` at one thread with default
/// SynthesizerOptions semantics (fail-fast, no provenance, titles
/// classified only when the feed has no category). Spans:
/// pipeline.classify / extract / reconcile per offer, pipeline.cluster
/// per batch, pipeline.fuse per cluster, all under pipeline.replay.
prodsyn::Result<std::vector<prodsyn::SynthesizedProduct>> ReplaySynthesize(
    const prodsyn::Catalog& catalog,
    const prodsyn::TitleClassifier& classifier,
    const prodsyn::SchemaReconciler& reconciler, const Batch& batch,
    const prodsyn::LandingPageProvider& pages, SpanLog* log,
    ReplayCounts* counts);

/// Per-layer figures of the offline replay.
struct OfflineReplay {
  double bag_build_ms = 0.0;
  size_t bags = 0;
  size_t candidates = 0;
  double features_total_ms = 0.0;
  double features_p99_us = 0.0;
  double generate_ms = 0.0;
  double score_ms = 0.0;     ///< classifier.score stage wall, summed over
                             ///< the scoring workers
  double lr_train_ms = 0.0;  ///< lr.train stage wall
  size_t lr_iterations = 0;
  double nb_train_ms = 0.0;
  uint64_t correspondence_digest = 0;
};

/// Replays offline learning: MatchedBagIndex::Build and a
/// FeatureComputer::Compute over every candidate (one thread), then
/// ClassifierMatcher::Generate at `threads` with its stage snapshots, then
/// TitleClassifier::TrainOnStore.
prodsyn::Result<OfflineReplay> ReplayOffline(const prodsyn::World& world,
                                             size_t threads, SpanLog* log);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REPLAY_H_
