#include "auth/enrollment.hh"

#include <cstdint>
#include <vector>

#include "store/codec.hh"
#include "util/logging.hh"

namespace divot {

namespace {

/**
 * Name the first bank-A record frame that failed, so the operator
 * learns *which* calibration burned, not just "bank A damaged".
 * Offsets are payload-relative (frame start); the id is best-effort —
 * it leads the record body and usually survives a corruption that
 * landed elsewhere in the frame.
 */
void
describeBankADamage(const std::vector<store::RecordDamage> &damaged,
                    EpromLoadReport &report)
{
    if (damaged.empty()) {
        report.detail += " (bank A header, framing or whole-bank "
                         "checksum damaged)";
        return;
    }
    const store::RecordDamage &first = damaged.front();
    report.failedRecordIndex = static_cast<int64_t>(first.index);
    report.failedRecordOffset = static_cast<int64_t>(first.offset);
    report.failedRecordId = first.id;
    report.detail += " (bank A record " + std::to_string(first.index) +
                     " at offset " + std::to_string(first.offset);
    if (!first.id.empty())
        report.detail += ", id '" + first.id + "'";
    report.detail += " failed verification)";
}

/** Keep only the fingerprints of parsed records. */
std::map<std::string, Fingerprint>
fingerprintsOf(std::map<std::string, store::EnrollmentRecord> &records)
{
    std::map<std::string, Fingerprint> out;
    for (auto &[channel, record] : records)
        out.emplace(channel, std::move(record.fp));
    return out;
}

} // namespace

bool
EnrollmentStore::enroll(const std::string &channel, Fingerprint fp,
                        bool overwrite)
{
    if (!fp.valid())
        divot_fatal("enrolling invalid fingerprint for channel '%s'",
                    channel.c_str());
    if (!overwrite && store_.count(channel)) {
        divot_warn("channel '%s' already enrolled; refusing overwrite",
                   channel.c_str());
        return false;
    }
    store_[channel] = std::move(fp);
    return true;
}

std::optional<Fingerprint>
EnrollmentStore::lookup(const std::string &channel) const
{
    const auto it = store_.find(channel);
    if (it == store_.end())
        return std::nullopt;
    return it->second;
}

bool
EnrollmentStore::contains(const std::string &channel) const
{
    return store_.count(channel) != 0;
}

bool
EnrollmentStore::saveToFile(const std::string &path) const
{
    // The EPROM image is a one-shard v4 store image: two mirrored
    // banks, each checksummed whole and per record, holding only the
    // id and fingerprint of every channel.
    std::map<std::string, store::EnrollmentRecord> records;
    for (const auto &[channel, fp] : store_) {
        store::EnrollmentRecord &record = records[channel];
        record.id = channel;
        record.fp = fp;
    }

    // Atomic replace (temp sibling + flush + rename): a power cut
    // mid-save — including mid-*scrub*, where the file being replaced
    // is the only copy of the fleet's calibrations — leaves either the
    // previous image or the new one, never a torn hybrid.
    const store::WriteFault *fault =
        saveFault_.has_value() ? &*saveFault_ : nullptr;
    return store::atomicWriteFile(path, store::buildShardImage(records),
                                  fault);
}

bool
EnrollmentStore::loadFromFile(const std::string &path)
{
    return loadWithReport(path).ok;
}

EpromLoadReport
EnrollmentStore::loadWithReport(const std::string &path,
                                bool scrub_on_fallback)
{
    EpromLoadReport report;
    std::vector<char> bytes;
    if (!store::readFile(path, bytes)) {
        report.detail = "file not readable";
        return report;
    }
    if (bytes.size() < 16) {
        report.detail = "file too short";
        return report;
    }

    // Build into a local map and swap only on success, so a damaged
    // image never disturbs the in-memory store. Only a bank that
    // verifies whole is accepted: per-record salvage across two
    // damaged banks could hand back a partial calibration set.
    std::map<std::string, store::EnrollmentRecord> loaded;
    const store::ShardParseReport shard =
        store::parseShardImage(bytes, loaded);
    if (shard.ok && !shard.salvaged) {
        report.bankUsed = shard.bankUsed;
        report.fellBack = shard.fellBack;
        if (shard.fellBack) {
            report.detail = shard.detail;
            describeBankADamage(shard.damagedA, report);
        }
    } else if (store::parseLegacyV1(bytes, loaded)) {
        report.detail = "legacy v1 single-copy image";
    } else if (store::parseLegacyV2Bank(bytes, false, loaded)) {
        report.bankUsed = 0;
    } else if (store::parseLegacyV2Bank(bytes, true, loaded)) {
        report.bankUsed = 1;
        report.fellBack = true;
        report.detail = "legacy v2 bank A damaged; recovered from bank B";
    } else {
        report.detail = "both banks damaged (or bad magic/version)";
        // A salvage that recovered records proves v4 framing, so its
        // bank-A damage list is meaningful; on a damaged legacy file
        // every frame fails the v4 decode and would name record 0.
        if (shard.records > 0)
            describeBankADamage(shard.damagedA, report);
        divot_warn("enrollment file '%s' failed integrity check in both "
                   "banks", path.c_str());
        return report;
    }

    report.ok = true;
    report.records = loaded.size();
    store_ = fingerprintsOf(loaded);
    if (report.fellBack) {
        divot_warn("enrollment file '%s': %s", path.c_str(),
                   report.detail.c_str());
        if (scrub_on_fallback) {
            // Scrub: rewrite a pristine dual-bank image (v4, whatever
            // the file held) so the next corruption again has a
            // healthy sibling to fall back on.
            report.scrubbed = saveToFile(path);
            if (!report.scrubbed) {
                divot_warn("enrollment file '%s': scrub rewrite "
                           "failed", path.c_str());
            }
        }
    }
    return report;
}

} // namespace divot
