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
    entries_.resize(config_.shards);
}

void
ShardImageCache::drop(unsigned shard)
{
    Entry &entry = entries_[shard];
    stats_.bytes -= entry.view->bytes;
    lru_.erase(entry.lruIt);
    entry.view.reset();
}

void
ShardImageCache::touch(unsigned shard)
{
    Entry &entry = entries_[shard];
    if (entry.frequency < kFrequencyCap)
        ++entry.frequency;
    if (entry.view != nullptr)
        lru_.splice(lru_.begin(), lru_, entry.lruIt);
}

bool
ShardImageCache::admit(unsigned shard, std::shared_ptr<const ShardView> view)
{
    if (view->bytes > config_.budgetBytes)
        return false;
    // Make room from the cold end, but never displace a hotter shard:
    // under a scan whose working set exceeds the budget this is what
    // keeps a stable subset pinned instead of thrashing every entry.
    while (stats_.bytes + view->bytes > config_.budgetBytes) {
        const unsigned victim = lru_.back();
        if (entries_[victim].frequency > entries_[shard].frequency)
            return false;
        drop(victim);
        ++stats_.evictions;
        tmEvictions_.add(1);
    }
    Entry &entry = entries_[shard];
    stats_.bytes += view->bytes;
    entry.view = std::move(view);
    lru_.push_front(shard);
    entry.lruIt = lru_.begin();
    ++stats_.admissions;
    tmAdmissions_.add(1);
    if (stats_.bytes > stats_.peakBytes)
        stats_.peakBytes = stats_.bytes;
    return true;
}

std::shared_ptr<const ShardView>
ShardImageCache::peek(unsigned shard)
{
    if (entries_[shard].view == nullptr) {
        ++stats_.misses;
        tmMisses_.add(1);
        return nullptr;
    }
    touch(shard);
    ++stats_.hits;
    tmHits_.add(1);
    return entries_[shard].view;
}

void
ShardImageCache::update(unsigned shard, ShardView view)
{
    ++stats_.updates;
    tmUpdates_.add(1);
    view.accountBytes();
    auto fresh = std::make_shared<const ShardView>(std::move(view));

    // Replace in place; if the rewrite grew the image past the budget,
    // fall back to the admission path (which may now legitimately drop
    // it).
    if (entries_[shard].view != nullptr)
        drop(shard);
    touch(shard);
    if (!admit(shard, std::move(fresh))) {
        ++stats_.rejections;
        tmRejections_.add(1);
    }
}

void
ShardImageCache::invalidate(unsigned shard)
{
    if (entries_[shard].view == nullptr)
        return;
    drop(shard);
    ++stats_.invalidations;
    tmInvalidations_.add(1);
}

void
ShardImageCache::attachTelemetry(Telemetry *telemetry)
{
    if (telemetry == nullptr)
        return;
    // All Unstable: hit patterns track the budget knob, and the stable
    // export must be byte-identical with the cache on or off.
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
