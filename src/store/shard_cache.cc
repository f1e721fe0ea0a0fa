#include "store/shard_cache.hh"

#include <utility>

namespace divot::store {

namespace {

/** Per-record map overhead: node pointers, key header, flags. */
constexpr std::size_t kRecordOverhead = 96;

constexpr uint32_t kFrequencyCap = 1u << 20;

} // namespace

void
ShardView::accountBytes()
{
    std::size_t total = sizeof(ShardView);
    for (const auto &[id, rec] : records)
        total += id.size() + rec.residentBytes() + kRecordOverhead;
    bytes = total;
}

ShardImageCache::ShardImageCache(ShardCacheConfig config)
    : config_(std::move(config))
{
    if (config_.shards == 0)
        config_.shards = 1;
    if (config_.lanes == 0)
        config_.lanes = 1;
    entries_.resize(config_.shards);
    rebuildLanes(config_.lanes);
}

void
ShardImageCache::rebuildLanes(unsigned lanes)
{
    config_.lanes = lanes == 0 ? 1 : lanes;
    lanes_.assign(config_.lanes, Lane{});
    for (Lane &lane : lanes_)
        lane.budget = config_.budgetBytes / config_.lanes;
}

void
ShardImageCache::configureLanes(unsigned lanes)
{
    invalidateAll();
    rebuildLanes(lanes);
}

void
ShardImageCache::evict(Lane &lane, unsigned shard)
{
    Entry &entry = entries_[shard];
    lane.bytes -= entry.view->bytes;
    lane.lru.erase(entry.lruIt);
    entry.view.reset();
    ++lane.stats.evictions;
    tmEvictions_.add(1);
}

bool
ShardImageCache::admit(Lane &lane, unsigned shard,
                       std::shared_ptr<const ShardView> view)
{
    if (view->bytes > lane.budget)
        return false;
    // Make room from the cold end, but never displace a hotter shard:
    // under a scan whose working set exceeds the budget this is what
    // keeps a stable subset pinned instead of thrashing every entry.
    while (lane.bytes + view->bytes > lane.budget) {
        const unsigned victim = lane.lru.back();
        if (entries_[victim].frequency > entries_[shard].frequency)
            return false;
        evict(lane, victim);
    }
    Entry &entry = entries_[shard];
    lane.bytes += view->bytes;
    entry.view = std::move(view);
    lane.lru.push_front(shard);
    entry.lruIt = lane.lru.begin();
    ++lane.stats.admissions;
    tmAdmissions_.add(1);
    if (lane.bytes > lane.stats.peakBytes)
        lane.stats.peakBytes = lane.bytes;
    return true;
}

std::shared_ptr<const ShardView>
ShardImageCache::peek(unsigned shard)
{
    Lane &lane = laneOf(shard);
    Entry &entry = entries_[shard];
    if (entry.view == nullptr) {
        ++lane.stats.misses;
        tmMisses_.add(1);
        return nullptr;
    }
    if (entry.frequency < kFrequencyCap)
        ++entry.frequency;
    lane.lru.splice(lane.lru.begin(), lane.lru, entry.lruIt);
    ++lane.stats.hits;
    tmHits_.add(1);
    return entry.view;
}

std::shared_ptr<const ShardView>
ShardImageCache::acquire(unsigned shard, const Loader &loader,
                         bool *from_cache)
{
    Lane &lane = laneOf(shard);
    Entry &entry = entries_[shard];
    if (entry.frequency < kFrequencyCap)
        ++entry.frequency;

    if (entry.view != nullptr) {
        lane.lru.splice(lane.lru.begin(), lane.lru, entry.lruIt);
        ++lane.stats.hits;
        tmHits_.add(1);
        if (from_cache != nullptr)
            *from_cache = true;
        return entry.view;
    }

    ++lane.stats.misses;
    tmMisses_.add(1);
    if (from_cache != nullptr)
        *from_cache = false;

    auto view = std::make_shared<ShardView>();
    if (!loader(*view))
        return nullptr; // nothing on disk; never negatively cached
    view->accountBytes();
    if (!admit(lane, shard, view)) {
        ++lane.stats.rejections;
        tmRejections_.add(1);
    }
    return view;
}

void
ShardImageCache::update(unsigned shard, ShardView view)
{
    Lane &lane = laneOf(shard);
    Entry &entry = entries_[shard];
    ++lane.stats.updates;
    tmUpdates_.add(1);
    view.accountBytes();
    auto fresh = std::make_shared<const ShardView>(std::move(view));

    if (entry.view != nullptr) {
        // Replace in place; if the rewrite grew the image past the
        // lane budget, fall back to the admission path (which may now
        // legitimately drop it).
        lane.bytes -= entry.view->bytes;
        lane.lru.erase(entry.lruIt);
        entry.view.reset();
    }
    if (entry.frequency < kFrequencyCap)
        ++entry.frequency;
    if (!admit(lane, shard, std::move(fresh))) {
        ++lane.stats.rejections;
        tmRejections_.add(1);
    }
}

void
ShardImageCache::invalidate(unsigned shard)
{
    Lane &lane = laneOf(shard);
    Entry &entry = entries_[shard];
    if (entry.view == nullptr)
        return;
    lane.bytes -= entry.view->bytes;
    lane.lru.erase(entry.lruIt);
    entry.view.reset();
    ++lane.stats.invalidations;
    tmInvalidations_.add(1);
}

void
ShardImageCache::invalidateAll()
{
    for (unsigned lane_idx = 0; lane_idx < lanes_.size(); ++lane_idx) {
        Lane &lane = lanes_[lane_idx];
        while (!lane.lru.empty()) {
            const unsigned shard = lane.lru.back();
            lane.bytes -= entries_[shard].view->bytes;
            lane.lru.pop_back();
            entries_[shard].view.reset();
            ++lane.stats.invalidations;
            tmInvalidations_.add(1);
        }
    }
    for (Entry &entry : entries_)
        entry.frequency = 0;
}

ShardCacheStats
ShardImageCache::stats() const
{
    ShardCacheStats total;
    for (const Lane &lane : lanes_) {
        total.hits += lane.stats.hits;
        total.misses += lane.stats.misses;
        total.admissions += lane.stats.admissions;
        total.rejections += lane.stats.rejections;
        total.evictions += lane.stats.evictions;
        total.updates += lane.stats.updates;
        total.invalidations += lane.stats.invalidations;
        total.bytes += lane.bytes;
        total.peakBytes += lane.stats.peakBytes;
    }
    return total;
}

void
ShardImageCache::attachTelemetry(Telemetry *telemetry)
{
    if (telemetry == nullptr)
        return;
    // All Unstable: hit patterns track the budget knob and thread-side
    // load order, and the stable export must be byte-identical with
    // the cache on or off.
    Registry &reg = telemetry->registry();
    tmHits_ = reg.counter("store.cache.hit", MetricStability::Unstable);
    tmMisses_ = reg.counter("store.cache.miss", MetricStability::Unstable);
    tmAdmissions_ =
        reg.counter("store.cache.admit", MetricStability::Unstable);
    tmRejections_ =
        reg.counter("store.cache.reject", MetricStability::Unstable);
    tmEvictions_ =
        reg.counter("store.cache.evict", MetricStability::Unstable);
    tmUpdates_ =
        reg.counter("store.cache.update", MetricStability::Unstable);
    tmInvalidations_ =
        reg.counter("store.cache.invalidate", MetricStability::Unstable);
}

} // namespace divot::store
