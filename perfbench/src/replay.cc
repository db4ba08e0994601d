#include "perfbench/src/replay.h"

#include <utility>

#include "src/matching/bag_index.h"
#include "src/matching/classifier_matcher.h"
#include "src/matching/features.h"
#include "src/pipeline/attribute_extraction.h"
#include "src/pipeline/clustering.h"
#include "src/pipeline/schema_reconciliation.h"
#include "src/pipeline/title_classifier.h"
#include "src/pipeline/value_fusion.h"

namespace perfbench {

using prodsyn::CategoryId;
using prodsyn::kInvalidCategory;

prodsyn::Result<std::vector<prodsyn::SynthesizedProduct>> ReplaySynthesize(
    const prodsyn::Catalog& catalog,
    const prodsyn::TitleClassifier& classifier,
    const prodsyn::SchemaReconciler& reconciler, const Batch& batch,
    const prodsyn::LandingPageProvider& pages, SpanLog* log,
    ReplayCounts* counts) {
  ScopedSpan whole(log, "pipeline.replay");
  const bool have_classifier = classifier.category_count() > 0;
  const auto& offers = batch.store.offers();
  std::vector<prodsyn::ReconciledOffer> reconciled;
  reconciled.reserve(offers.size());
  for (size_t i = 0; i < offers.size(); ++i) {
    const prodsyn::Offer& offer = offers[i];
    ++counts->offers;
    CategoryId category = offer.category;
    if (category == kInvalidCategory && have_classifier) {
      ScopedSpan span(log, "pipeline.classify");
      auto classified = classifier.Classify(offer.title);
      if (classified.ok()) category = *classified;
    }
    if (category == batch.true_category[i]) ++counts->categorized_correctly;
    if (category == kInvalidCategory) continue;

    auto extracted = InSpan(log, "pipeline.extract", [&] {
      return prodsyn::ExtractOfferSpecification(offer, pages);
    });
    if (!extracted.ok()) return extracted.status();
    counts->extracted_pairs += extracted->size();

    prodsyn::ReconciledOffer out;
    out.offer_id = offer.id;
    out.merchant = offer.merchant;
    out.category = category;
    out.spec = InSpan(log, "pipeline.reconcile", [&] {
      return reconciler.Reconcile(offer.merchant, category, *extracted);
    });
    counts->reconciled_pairs += out.spec.size();
    reconciled.push_back(std::move(out));
  }

  size_t without_key = 0;
  auto clusters = InSpan(log, "pipeline.cluster", [&] {
    return prodsyn::ClusterByKey(reconciled, catalog.schemas(), {},
                                 &without_key);
  });
  if (!clusters.ok()) return clusters.status();
  counts->clusters += clusters->size();
  counts->offers_without_key += without_key;

  std::vector<prodsyn::SynthesizedProduct> products;
  for (auto& cluster : *clusters) {
    auto schema = catalog.schemas().Get(cluster.category);
    if (!schema.ok()) continue;
    auto spec = InSpan(log, "pipeline.fuse", [&] {
      return prodsyn::FuseCluster(cluster, *schema.ValueOrDie());
    });
    if (!spec.ok()) return spec.status();
    if (spec->empty()) continue;
    prodsyn::SynthesizedProduct product;
    product.category = cluster.category;
    product.key = std::move(cluster.key);
    product.spec = std::move(*spec);
    for (const auto& member : cluster.members) {
      product.source_offers.push_back(member.offer_id);
    }
    products.push_back(std::move(product));
  }
  return products;
}

namespace {

double StageWallMs(const prodsyn::ClassifierRunStats& stats,
                   const std::string& name) {
  for (const auto& stage : stats.stage_metrics) {
    if (stage.name == name) return static_cast<double>(stage.wall_ns) / 1e6;
  }
  return 0.0;
}

}  // namespace

prodsyn::Result<OfflineReplay> ReplayOffline(const prodsyn::World& world,
                                             size_t threads, SpanLog* log) {
  OfflineReplay out;
  prodsyn::MatchingContext ctx;
  ctx.catalog = &world.catalog;
  ctx.offers = &world.historical_offers;
  ctx.matches = &world.historical_matches;

  {
    prodsyn::BagIndexOptions options;
    options.build_threads = threads;
    auto index = InSpan(log, "matching.bag_index.build", [&] {
      return prodsyn::MatchedBagIndex::Build(ctx, options);
    });
    out.bag_build_ms = log->TotalMs("matching.bag_index.build");
    if (!index.ok()) return index.status();
    out.bags = index->bag_count();
    out.candidates = index->candidates().size();

    // One FeatureComputer over every candidate, like a single scoring
    // chunk; per-call times would swamp the span log, so they go to a
    // sample set under one enclosing span.
    ScopedSpan span(log, "matching.features");
    prodsyn::FeatureComputer computer(&*index);
    Samples call_ns;
    for (const auto& tuple : index->candidates()) {
      const auto t0 = Clock::now();
      auto features = computer.Compute(tuple);
      call_ns.Add(static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               t0)
              .count()));
      if (features.empty()) {
        return prodsyn::Status::Internal("empty feature vector");
      }
    }
    out.features_total_ms = call_ns.Sum() / 1e6;
    out.features_p99_us = call_ns.Quantile(0.99) / 1e3;
  }

  {
    prodsyn::ClassifierMatcherOptions options;
    options.offline_threads = threads;
    prodsyn::ClassifierMatcher matcher(std::move(options));
    auto corrs =
        InSpan(log, "matching.generate", [&] { return matcher.Generate(ctx); });
    out.generate_ms = log->TotalMs("matching.generate");
    if (!corrs.ok()) return corrs.status();
    out.correspondence_digest = DigestCorrespondences(*corrs);
    out.score_ms = StageWallMs(matcher.stats(), "classifier.score");
    out.lr_train_ms = StageWallMs(matcher.stats(), "lr.train");
    out.lr_iterations = matcher.stats().lr_iterations;
  }

  {
    prodsyn::TitleClassifier classifier;
    InSpan(log, "ml.nb.train",
           [&] { return classifier.TrainOnStore(world.historical_offers); });
    out.nb_train_ms = log->TotalMs("ml.nb.train");
  }
  return out;
}

}  // namespace perfbench
