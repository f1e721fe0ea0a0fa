#include "store/enrollment_db.hh"

#include <algorithm>
#include <cstdio>
#include <set>

#include "store/io.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace divot::store {

namespace {

constexpr uint32_t kJournalMagic = 0x4C414A44; // "DJAL"
constexpr uint8_t kOpPut = 1;
constexpr uint8_t kOpErase = 2;

/** Interpret a StorageFault as the WriteFault for one physical write. */
WriteFault
writeFaultFor(const StorageFault &fault, std::size_t bytes,
              bool is_commit)
{
    WriteFault wf;
    if (fault.torn) {
        double f = fault.tornFraction;
        if (f < 0.0)
            f = 0.0;
        if (f > 1.0)
            f = 1.0;
        wf.tornAfterBytes =
            static_cast<int64_t>(f * static_cast<double>(bytes));
    }
    if (fault.crash) {
        if (fault.crashPoint == StorageCrashPoint::BeforeWrite)
            wf.crashBeforeWrite = true;
        else if (is_commit &&
                 fault.crashPoint == StorageCrashPoint::BeforeCommit)
            wf.crashBeforeRename = true;
    }
    return wf;
}

/** @return true when the parse saw any damage at all. */
bool
imageDamaged(const ShardParseReport &report)
{
    return !report.ok || report.fellBack || report.salvaged ||
           !report.damagedA.empty() || !report.damagedB.empty() ||
           !report.bankAHealthy || !report.bankBHealthy;
}

/**
 * @return true when a damaged image yielded no records AND no
 * accounting of what was lost — either the parse failed outright or
 * the framing is so mangled the record count is unknowable. Rewriting
 * such an image would silently destroy every record it held while
 * reporting zero losses.
 */
bool
imageUnreadable(const ShardParseReport &report, std::size_t recovered)
{
    return imageDamaged(report) && recovered == 0 &&
           report.unrecoverable.empty();
}

/** Positional-read access to a shard file (which must outlive it). */
ImageReader
readerOf(const ReadOnlyFile &file)
{
    ImageReader image;
    image.size = file.size();
    image.read = [&file](uint64_t offset, std::size_t n, char *out) {
        return file.readAt(offset, n, out);
    };
    return image;
}

} // namespace

EnrollmentDb::EnrollmentDb(EnrollmentDbConfig config)
    : config_(std::move(config))
{
    if (config_.shards == 0)
        config_.shards = 1;
    overlays_.resize(config_.shards);
    if (config_.shardCacheBytes > 0) {
        ShardCacheConfig cc;
        cc.budgetBytes = config_.shardCacheBytes;
        cc.shards = config_.shards;
        cache_ = std::make_unique<ShardImageCache>(cc);
    }
}

std::string
EnrollmentDb::shardPath(unsigned shard) const
{
    return config_.directory + "/shard-" + std::to_string(shard) +
           ".bin";
}

std::string
EnrollmentDb::journalPath() const
{
    return config_.directory + "/journal.wal";
}

unsigned
EnrollmentDb::shardOf(const std::string &id) const
{
    return static_cast<unsigned>(channelHash(id) %
                                 config_.shards);
}

bool
EnrollmentDb::open()
{
    if (!dirExists(config_.directory)) {
        divot_warn("enrollment db directory '%s' does not exist",
                   config_.directory.c_str());
        return false;
    }
    opened_ = true;
    // A predecessor handle may have died between a rename and the
    // directory sync that pins it (a bulk load syncs once, at its
    // closing checkpoint): when any image exists, the first settle of
    // this handle pins them.
    pendingDirSync_ = false;
    for (unsigned s = 0; s < config_.shards && !pendingDirSync_; ++s)
        pendingDirSync_ = fileExists(shardPath(s));
    replayJournal();
    return true;
}

void
EnrollmentDb::attachFaultInjector(const FaultInjector *injector)
{
    injector_ = injector != nullptr && injector->hasStorageFaults()
        ? injector : nullptr;
}

void
EnrollmentDb::attachTelemetry(Telemetry *telemetry)
{
    if (telemetry == nullptr || !telemetry->enabled()) {
        telemetry_ = nullptr;
        return;
    }
    telemetry_ = telemetry;
    Registry &reg = telemetry->registry();
    tmPuts_ = reg.counter("store.puts");
    tmGets_ = reg.counter("store.gets");
    tmGetDamaged_ = reg.counter("store.gets.damaged");
    tmFlushes_ = reg.counter("store.shard.flushes");
    tmCheckpoints_ = reg.counter("store.checkpoints");
    tmJournalEntries_ = reg.counter("store.journal.entries");
    tmJournalReplays_ = reg.counter("store.journal.replays");
    tmScrubPasses_ = reg.counter("store.scrub.passes");
    tmScrubRepairs_ = reg.counter("store.scrub.repairs");
    tmScrubLost_ = reg.counter("store.scrub.lost_records");
    tmCrashes_ = reg.counter("store.crashes");
    if (cache_ != nullptr)
        cache_->attachTelemetry(telemetry);
}

ShardCacheStats
EnrollmentDb::cacheStats() const
{
    return cache_ != nullptr ? cache_->stats() : ShardCacheStats{};
}

void
EnrollmentDb::truncateJournal()
{
    if (pendingDirSync_) {
        syncDir(config_.directory);
        pendingDirSync_ = false;
    }
    journalStream_.close();
    truncateFile(journalPath(), 0);
    journalBytes_ = 0;
    tmCheckpoints_.add();
}

StorageFault
EnrollmentDb::faultFor(uint64_t event) const
{
    if (injector_ == nullptr)
        return StorageFault{};
    return injector_->storageFrameFor(event);
}

bool
EnrollmentDb::appendJournal(uint8_t op, const std::vector<char> &body,
                            const StorageFault &fault)
{
    std::vector<char> entry;
    entry.reserve(body.size() + 40);
    putU64(entry, (static_cast<uint64_t>(op) << 32) | kJournalMagic);
    putU64(entry, journalSeq_);
    putU64(entry, body.size());
    entry.insert(entry.end(), body.begin(), body.end());
    putU64(entry, fnv1a(body));

    const WriteFault wf = writeFaultFor(fault, entry.size(), false);
    // Group commit keeps the journal handle open across appends —
    // one open()/close() per epoch instead of one per record; the
    // durability model (flushed, never fsynced, torn tails detected
    // on replay) is byte-identical either way.
    const bool ok = config_.journalGroupCommit
        ? journalStream_.append(journalPath(), entry, &wf)
        : appendFile(journalPath(), entry, &wf);
    if (fault.torn || wf.crashBeforeWrite) {
        // Power cut mid-append: whatever prefix landed is a torn tail
        // the next open() will detect and discard.
        dead_ = true;
        tmCrashes_.add();
        return false;
    }
    if (!ok)
        return false;
    ++journalSeq_;
    journalBytes_ += entry.size();
    tmJournalEntries_.add();
    return true;
}

bool
EnrollmentDb::replayJournal()
{
    std::vector<char> bytes;
    if (!readFile(journalPath(), bytes) || bytes.empty())
        return true;

    ByteReader pr(bytes);
    uint64_t applied = 0;
    std::size_t good_end = 0;
    while (!pr.done()) {
        uint64_t header = 0, seq = 0, body_len = 0;
        if (!pr.u64(header) || (header & 0xffffffffu) != kJournalMagic)
            break; // framing lost: torn tail starts here
        const uint8_t op = static_cast<uint8_t>(header >> 32);
        if (op != kOpPut && op != kOpErase)
            break;
        if (!pr.u64(seq) || !pr.u64(body_len) ||
            pr.remaining() < 8 || body_len > pr.remaining() - 8) {
            // Entry runs off the end of the file (overflow-safe: a
            // rotted length near 2^64 must not wrap past the bound).
            break; // torn tail
        }
        std::vector<char> body;
        uint64_t crc = 0;
        if (!pr.raw(body, body_len) || !pr.u64(crc))
            break; // short read despite the guard: treat as torn tail
        good_end = pr.pos();
        journalSeq_ = seq + 1;
        if (fnv1a(body) != crc)
            continue; // framing intact, payload rotted: skip the entry

        if (op == kOpPut) {
            EnrollmentRecord rec;
            if (!decodeRecordBody(body, rec))
                continue;
            overlays_[shardOf(rec.id)][rec.id] = std::move(rec);
        } else {
            ByteReader br(body);
            std::string id;
            if (!br.str(id) || !br.done())
                continue;
            overlays_[shardOf(id)][id] = std::nullopt;
        }
        ++applied;
    }

    if (good_end < bytes.size()) {
        // Drop the torn tail so later appends frame cleanly again.
        journalStream_.close();
        truncateFile(journalPath(), good_end);
        divot_warn("enrollment journal '%s': discarded %zu torn tail "
                   "bytes", journalPath().c_str(),
                   bytes.size() - good_end);
    }
    journalBytes_ = good_end;
    replayed_ = applied;
    if (applied > 0)
        tmJournalReplays_.add();
    return true;
}

std::map<std::string, EnrollmentRecord>
EnrollmentDb::imageRecords(unsigned shard)
{
    const std::shared_ptr<const ShardView> cached =
        cache_ != nullptr ? cache_->peek(shard) : nullptr;
    if (cached != nullptr && cached->clean) {
        // Fast path: a clean cached view is byte-coherent with the
        // on-disk image (every rewrite write-through-updates it, every
        // injected damage invalidates it), so the read + lenient parse
        // of the whole image is skipped entirely.
        return cached->records;
    }
    std::map<std::string, EnrollmentRecord> records;
    std::vector<char> bytes;
    if (readFile(shardPath(shard), bytes) && !bytes.empty()) {
        // Lenient parse: keep whatever verifies in either bank.
        const ShardParseReport report = parseShardImage(bytes, records);
        if (imageUnreadable(report, records.size())) {
            // The rewrite must still happen, but overwriting an image
            // that yielded nothing would silently destroy whatever it
            // held. Move the bytes aside for forensics first; their
            // channels surface as Missing/Unrecoverable and re-enroll.
            if (cache_ != nullptr)
                cache_->invalidate(shard);
            std::rename(shardPath(shard).c_str(),
                        (shardPath(shard) + ".corrupt").c_str());
            divot_warn("shard %u image unreadable; preserved as "
                       "'%s.corrupt' before rewrite",
                       shard, shardPath(shard).c_str());
        }
    }
    return records;
}

bool
EnrollmentDb::flushShard(unsigned shard, const StorageFault &fault)
{
    std::map<std::string, EnrollmentRecord> records = imageRecords(shard);
    mergeOverlay(shard, records);
    const std::vector<char> image = buildShardImage(records);
    const WriteFault wf = writeFaultFor(fault, image.size(), true);
    // Group commit batches the directory sync per epoch; the image
    // data always syncs inline.
    if (!atomicWriteFile(shardPath(shard), image, &wf,
                         /*sync_dir=*/!config_.journalGroupCommit))
        return false;
    landImage(shard, std::move(records), config_.journalGroupCommit);
    return true;
}

void
EnrollmentDb::mergeOverlay(
    unsigned shard, std::map<std::string, EnrollmentRecord> &records) const
{
    for (const auto &[id, pending] : overlays_[shard]) {
        if (pending.has_value())
            records[id] = *pending;
        else
            records.erase(id);
    }
}

void
EnrollmentDb::landImage(unsigned shard,
                        std::map<std::string, EnrollmentRecord> records,
                        bool dir_sync_deferred)
{
    if (dir_sync_deferred)
        pendingDirSync_ = true;
    if (cache_ != nullptr) {
        // The image is the shard's new content; write it through so no
        // reader ever sees the state it replaced.
        ShardView fresh;
        fresh.records = std::move(records);
        fresh.clean = true;
        cache_->update(shard, std::move(fresh));
    }
    overlays_[shard].clear();
    tmFlushes_.add();
}

void
EnrollmentDb::applyPostWriteDamage(const StorageFault &fault,
                                   unsigned shard)
{
    // Medium damage lands on the shard image when one exists (that is
    // where scrub repair earns its keep), else on the journal.
    const bool on_image = fileExists(shardPath(shard));
    const std::string target = on_image ? shardPath(shard)
                                        : journalPath();
    if (on_image && cache_ != nullptr &&
        (fault.bitRotBits > 0 || fault.truncate)) {
        // The cached decoded view no longer matches the medium; the
        // next reader must re-decode the rotted bytes.
        cache_->invalidate(shard);
    }
    if (fault.bitRotBits > 0) {
        Rng rot = fault.rotRng;
        std::vector<StuckBit> bits;
        bits.reserve(fault.bitRotBits);
        for (uint64_t i = 0; i < fault.bitRotBits; ++i) {
            StuckBit sb;
            sb.offset = rot.uniformInt(1u << 30);
            sb.bit = static_cast<unsigned>(rot.uniformInt(8));
            sb.level = static_cast<int>(rot.uniformInt(2));
            bits.push_back(sb);
        }
        applyStuckBits(target, bits);
    }
    if (fault.truncate) {
        const int64_t size = fileSize(target);
        if (size > 0) {
            double keep = fault.truncateKeep;
            if (keep < 0.0)
                keep = 0.0;
            if (keep > 1.0)
                keep = 1.0;
            truncateFile(target, static_cast<uint64_t>(
                keep * static_cast<double>(size)));
        }
    }
}

bool
EnrollmentDb::mutate(uint8_t op, const std::string &id,
                     const EnrollmentRecord *record)
{
    if (dead_ || !opened_)
        return false;

    const StorageFault fault = faultFor(ioEvent_++);
    if (fault.crash &&
        fault.crashPoint == StorageCrashPoint::BeforeWrite) {
        dead_ = true;
        tmCrashes_.add();
        return false;
    }

    std::vector<char> body;
    if (op == kOpPut) {
        body = encodeRecordBody(*record);
    } else {
        putString(body, id);
    }
    if (!appendJournal(op, body, fault))
        return false;
    if (fault.crash &&
        fault.crashPoint == StorageCrashPoint::AfterJournal) {
        // The journal entry is durable; the in-memory apply never
        // happens. Replay recovers the mutation on the next open.
        dead_ = true;
        tmCrashes_.add();
        return false;
    }

    const unsigned shard = shardOf(id);
    if (op == kOpPut)
        overlays_[shard][id] = *record;
    else
        overlays_[shard][id] = std::nullopt;

    if (fault.crash &&
        fault.crashPoint == StorageCrashPoint::BeforeCommit) {
        // Force the commit attempt so the cut lands between the temp
        // image and the rename — the crash-matrix cell the dual path
        // (intact old image + replayable journal) must cover.
        flushShard(shard, fault);
        dead_ = true;
        tmCrashes_.add();
        return false;
    }

    bool durable = true;
    if (overlays_[shard].size() >= config_.overlayFlushRecords)
        durable = flushShard(shard, StorageFault{});
    applyPostWriteDamage(fault, shard);
    if (durable && journalBytes_ >= config_.journalCheckpointBytes) {
        for (unsigned s = 0; s < config_.shards && durable; ++s) {
            if (!overlays_[s].empty())
                durable = flushShard(s, StorageFault{});
        }
        if (durable)
            truncateJournal();
    }

    // Count the put before the AfterCommit cut below: the mutation is
    // durable at this point, so it belongs in store.puts even when the
    // process doesn't survive the tick.
    if (op == kOpPut)
        tmPuts_.add();
    if (fault.crash &&
        fault.crashPoint == StorageCrashPoint::AfterCommit) {
        dead_ = true;
        tmCrashes_.add();
        // The mutation is durable (journaled, possibly flushed); the
        // process just doesn't survive to do anything else.
        return true;
    }
    return true;
}

bool
EnrollmentDb::put(const EnrollmentRecord &record)
{
    if (record.id.empty() || !record.fp.valid()) {
        divot_warn("enrollment db: refusing invalid record '%s'",
                   record.id.c_str());
        return false;
    }
    return mutate(kOpPut, record.id, &record);
}

std::vector<ShardWriteStatus>
EnrollmentDb::writeShards(const std::vector<ShardWriteGroup> &groups,
                          ThreadPool &pool)
{
    std::vector<ShardWriteStatus> status(groups.size(),
                                         ShardWriteStatus::Skipped);
    if (dead_ || !opened_ || groups.empty())
        return status;
    // Journal ordering: land every pending overlay and truncate the
    // journal before anything bulk-written exists, or a replay after a
    // later crash could lay an older journaled record over it. A cut
    // here is charged to the first group's commit.
    if (journalBytes_ > 0 && !checkpoint()) {
        status.front() = ShardWriteStatus::Failed;
        return status;
    }

    // Commit g consumes event ioEvent_ + g. The first power cut ends
    // the call, so nothing past it is read, built or written.
    std::vector<StorageFault> faults;
    for (std::size_t g = 0; g < groups.size(); ++g) {
        faults.push_back(faultFor(ioEvent_ + g));
        if (faults.back().torn || faults.back().crash)
            break;
    }
    // Merge bases, serially: only shards that already have an image
    // touch the cache or the disk here.
    std::vector<std::map<std::string, EnrollmentRecord>> records(
        faults.size());
    for (std::size_t g = 0; g < faults.size(); ++g) {
        if (fileExists(shardPath(groups[g].shard)))
            records[g] = imageRecords(groups[g].shard);
    }
    std::vector<uint8_t> written(faults.size(), 0);
    pool.parallelFor(faults.size(), [&](std::size_t g) {
        const ShardWriteGroup &group = groups[g];
        for (const EnrollmentRecord &record : group.records) {
            if (record.id.empty() || !record.fp.valid() ||
                shardOf(record.id) != group.shard)
                return; // a malformed group is never written
            records[g][record.id] = record;
        }
        const std::vector<char> image = buildShardImage(records[g]);
        const WriteFault wf =
            writeFaultFor(faults[g], image.size(), true);
        written[g] = writeTempFile(shardPath(group.shard), image, &wf);
    });

    for (std::size_t g = 0; g < faults.size(); ++g) {
        const StorageFault &fault = faults[g];
        const unsigned shard = groups[g].shard;
        ++ioEvent_;
        status[g] = ShardWriteStatus::Failed;
        const bool cutBeforeRename = fault.torn ||
            (fault.crash &&
             fault.crashPoint != StorageCrashPoint::AfterCommit);
        if (cutBeforeRename) {
            // The old image (or none) stays in place beside an
            // abandoned temp: empty, torn, or complete but unrenamed.
            dead_ = true;
            tmCrashes_.add();
            break;
        }
        if (written[g] == 0 ||
            !commitTempFile(shardPath(shard), /*sync_dir=*/false))
            continue;
        status[g] = ShardWriteStatus::Landed;
        tmPuts_.add(groups[g].records.size());
        landImage(shard, std::move(records[g]), /*dir_sync_deferred=*/true);
        applyPostWriteDamage(fault, shard);
        if (fault.crash) { // AfterCommit: the image is in place
            dead_ = true;
            tmCrashes_.add();
            break;
        }
    }
    return status;
}

bool
EnrollmentDb::erase(const std::string &id)
{
    return mutate(kOpErase, id, nullptr);
}

bool
EnrollmentDb::setFlags(const std::string &id, uint64_t flags)
{
    EnrollmentRecord rec;
    if (get(id, rec) != DbGetStatus::Ok)
        return false;
    if (rec.flags == flags)
        return true;
    rec.flags = flags;
    return put(rec);
}

DbGetStatus
EnrollmentDb::get(const std::string &id, EnrollmentRecord &out)
{
    tmGets_.add();
    RecordRead read =
        std::move(readShard(shardOf(id), {id}, /*access=*/true).reads[0]);
    if (read.status == DbGetStatus::Ok)
        out = std::move(read.record);
    else if (read.status == DbGetStatus::Unrecoverable)
        tmGetDamaged_.add();
    return read.status;
}

std::vector<ShardRead>
EnrollmentDb::readRecords(const std::vector<ShardReadGroup> &groups,
                          ThreadPool &pool)
{
    std::vector<ShardRead> out(groups.size());
    pool.parallelFor(groups.size(), [&](std::size_t g) {
        out[g] = readShard(groups[g].shard, groups[g].ids,
                           /*access=*/false);
    });
    // Replay the lookups as accesses, serially in group order: the
    // reads above changed no residency, so each replay sees exactly
    // the view its group was served from.
    if (cache_ != nullptr) {
        for (const ShardReadGroup &group : groups)
            cache_->peek(group.shard);
    }
    return out;
}

ShardRead
EnrollmentDb::readShard(unsigned shard, const std::vector<std::string> &ids,
                        bool access)
{
    ShardRead out;
    out.reads.resize(ids.size());
    // Ids the overlay leaves to the image layer, by position in `ids`.
    std::vector<std::size_t> pending;
    const Overlay &overlay = overlays_[shard];
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const auto it = overlay.empty() ? overlay.end()
                                        : overlay.find(ids[i]);
        if (it == overlay.end()) {
            pending.push_back(i);
        } else if (it->second.has_value()) {
            out.reads[i].status = DbGetStatus::Ok;
            out.reads[i].record = *it->second;
        } // else a tombstone: Missing
    }

    std::shared_ptr<const ShardView> view;
    if (cache_ != nullptr && !pending.empty())
        view = access ? cache_->peek(shard) : cache_->resident(shard);
    if (view != nullptr) {
        std::size_t kept = 0;
        for (const std::size_t i : pending) {
            const auto vit = view->records.find(ids[i]);
            if (vit != view->records.end()) {
                out.reads[i].status = DbGetStatus::Ok;
                out.reads[i].record = vit->second;
            } else if (!view->clean) {
                // A damaged view cannot tell "never written" from
                // "written but damaged in every bank": ask the image.
                pending[kept++] = i;
            }
        }
        pending.resize(kept);
    }
    out.fromCache = pending.empty();
    if (pending.empty())
        return out;

    const ReadOnlyFile file(shardPath(shard));
    if (!file.isOpen() || file.size() == 0)
        return out; // no image on disk: Missing
    std::vector<std::string> wanted;
    wanted.reserve(pending.size());
    for (const std::size_t i : pending)
        wanted.push_back(ids[i]);
    std::vector<RecordRead> fromDisk = readShardRecords(readerOf(file), wanted);
    for (std::size_t k = 0; k < pending.size(); ++k)
        out.reads[pending[k]] = std::move(fromDisk[k]);
    return out;
}

bool
EnrollmentDb::checkpoint()
{
    if (dead_ || !opened_)
        return false;
    const StorageFault fault = faultFor(ioEvent_++);
    if (fault.crash &&
        fault.crashPoint == StorageCrashPoint::BeforeWrite) {
        dead_ = true;
        tmCrashes_.add();
        return false;
    }
    bool first = true;
    for (unsigned s = 0; s < config_.shards; ++s) {
        if (overlays_[s].empty())
            continue;
        // The fault frame targets the first physical write of the
        // operation; later flushes run clean so one scheduled cell
        // interrupts exactly one commit.
        if (!flushShard(s, first ? fault : StorageFault{}))
            return false;
        if (first && (fault.torn || fault.crash)) {
            dead_ = true;
            tmCrashes_.add();
            return false;
        }
        first = false;
    }
    truncateJournal();
    if (fault.crash &&
        fault.crashPoint == StorageCrashPoint::AfterCommit) {
        dead_ = true;
        tmCrashes_.add();
    }
    return true;
}

ScrubResult
EnrollmentDb::scrubShard(unsigned shard)
{
    ScrubResult result;
    result.shard = shard;
    if (shard >= config_.shards || dead_ || !opened_)
        return result;
    tmScrubPasses_.add();

    std::vector<char> bytes;
    if (!readFile(shardPath(shard), bytes) || bytes.empty())
        return result;
    result.scanned = true;

    std::map<std::string, EnrollmentRecord> records;
    const ShardParseReport report = parseShardImage(bytes, records);
    for (const RecordDamage &dmg : report.unrecoverable) {
        if (!dmg.id.empty())
            result.lostIds.push_back(dmg.id);
        else
            ++result.lostUnnamed;
    }
    if (!imageDamaged(report))
        return result; // pristine image: nothing to repair
    if (imageUnreadable(report, records.size())) {
        // Nothing in the image could be recovered and nothing could
        // even be counted as lost (parse failed outright, or the
        // framing is mangled beyond accounting). Rewriting from the
        // empty recovered map would destroy every record in the shard
        // while reporting zero losses — exactly the silent wipe this
        // layer must never do. Leave the file untouched (point lookups
        // keep returning Unrecoverable, and the bytes stay available
        // for forensics) and surface the wholesale loss so the fleet
        // can demote the shard's channels immediately instead of at
        // their next probe.
        result.unreadable = true;
        return result;
    }

    // Rewrite a pristine dual-bank image from everything recoverable
    // (salvaged records plus this shard's pending overlay), so the
    // next corruption again has a healthy sibling bank to fall back
    // on. Unrecoverable records are dropped — their channels must
    // re-enroll — but never silently: the result reports them.
    mergeOverlay(shard, records);
    const std::vector<char> image = buildShardImage(records);
    const StorageFault fault = faultFor(ioEvent_++);
    const WriteFault wf = writeFaultFor(fault, image.size(), true);
    if (!atomicWriteFile(shardPath(shard), image, &wf)) {
        if (fault.torn || fault.crash) {
            dead_ = true;
            tmCrashes_.add();
        }
        return result;
    }
    landImage(shard, std::move(records), /*dir_sync_deferred=*/false);
    applyPostWriteDamage(fault, shard);
    result.repaired = true;
    tmScrubRepairs_.add();
    tmScrubLost_.add(result.lostIds.size() + result.lostUnnamed);
    return result;
}

ScrubResult
EnrollmentDb::scrubStep()
{
    const unsigned shard = scrubCursor_;
    scrubCursor_ = (scrubCursor_ + 1) % config_.shards;
    return scrubShard(shard);
}

uint64_t
EnrollmentDb::importImage(const std::vector<char> &bytes)
{
    std::map<std::string, EnrollmentRecord> records;
    if (parseLegacyImage(bytes, records) == 0) {
        const ShardParseReport report = parseShardImage(bytes, records);
        if (!report.ok)
            return 0;
    }
    uint64_t imported = 0;
    for (const auto &[id, record] : records) {
        if (put(record))
            ++imported;
    }
    return imported;
}

std::vector<std::string>
EnrollmentDb::ids()
{
    std::set<std::string> all;
    for (unsigned s = 0; s < config_.shards; ++s) {
        const ReadOnlyFile file(shardPath(s));
        if (file.isOpen() && file.size() > 0) {
            const ImageReader image = readerOf(file);
            std::vector<std::string> indexed;
            if (readShardIndexIds(image, indexed)) {
                all.insert(indexed.begin(), indexed.end());
            } else {
                // v3 image or both indexes damaged: parse it whole.
                std::vector<char> bytes(image.size);
                std::map<std::string, EnrollmentRecord> records;
                if (image.read(0, bytes.size(), bytes.data()))
                    parseShardImage(bytes, records);
                for (const auto &[id, record] : records)
                    all.insert(id);
            }
        }
        for (const auto &[id, pending] : overlays_[s]) {
            if (pending.has_value())
                all.insert(id);
            else
                all.erase(id);
        }
    }
    return {all.begin(), all.end()};
}

} // namespace divot::store
