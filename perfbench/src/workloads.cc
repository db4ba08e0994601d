#include "perfbench/src/workloads.h"

#include <algorithm>

namespace perfbench {

namespace {

std::vector<Workload> BuildWorkloads() {
  std::vector<Workload> all;

  // Wide taxonomy, uncategorized incoming offers: title classification
  // over every leaf dominates Synthesize. Whole-feed calls, one caller.
  Workload catalog_wide;
  catalog_wide.name = "catalog-wide";
  catalog_wide.default_seed = 2011;
  catalog_wide.world.categories_per_archetype = 14;
  catalog_wide.world.max_leaf_categories = 498;
  catalog_wide.world.merchants = 30;
  catalog_wide.world.products_per_category = 14;
  catalog_wide.batch_size = 0;
  all.push_back(catalog_wide);

  // Few leaves, categorized feeds from many merchants in small batches:
  // no classification; landing-page extraction and per-call costs show.
  Workload feed_stream;
  feed_stream.name = "feed-stream";
  feed_stream.default_seed = 7;
  feed_stream.world.categories_per_archetype = 1;
  feed_stream.world.merchants = 220;
  feed_stream.world.products_per_category = 200;
  feed_stream.world.incoming_offers_have_category = true;
  feed_stream.batch_size = 256;
  all.push_back(feed_stream);

  // The paper's 1,143 merchants over 74 leaves: offline learning (bag
  // index, features, LR) and the snapshot write/read paths do the work.
  Workload relearn;
  relearn.name = "relearn";
  relearn.default_seed = 5;
  relearn.world.categories_per_archetype = 2;
  relearn.world.merchants = 1143;
  relearn.world.products_per_category = 30;
  relearn.batch_size = 0;
  relearn.warm_share = 0.5;
  all.push_back(relearn);
  return all;
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = BuildWorkloads();
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

prodsyn::Result<std::vector<Batch>> MakeBatches(const prodsyn::World& world,
                                                size_t batch_size) {
  const auto& offers = world.incoming_offers.offers();
  const size_t step = batch_size == 0 ? offers.size() : batch_size;
  std::vector<Batch> batches;
  for (size_t begin = 0; begin < offers.size(); begin += step) {
    Batch batch;
    const size_t end = std::min(offers.size(), begin + step);
    for (size_t i = begin; i < end; ++i) {
      prodsyn::Offer copy = offers[i];
      const prodsyn::OfferId world_id = copy.id;
      auto added = batch.store.AddOffer(std::move(copy));
      if (!added.ok()) return added.status();
      batch.world_ids.push_back(world_id);
      auto truth = world.incoming_category.find(world_id);
      batch.true_category.push_back(truth == world.incoming_category.end()
                                        ? prodsyn::kInvalidCategory
                                        : truth->second);
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

}  // namespace perfbench
