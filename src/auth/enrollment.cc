#include "auth/enrollment.hh"

#include <cstdint>
#include <fstream>
#include <vector>

#include "store/codec.hh"
#include "util/logging.hh"

namespace divot {

namespace {

using store::fnv1a;
using store::kBankHeaderSize;
using store::putU64;

/** Header word of a v2 bank: version in the high half, magic low. */
constexpr uint64_t kMagicVer =
    (static_cast<uint64_t>(store::kLegacyV2) << 32) | store::kStoreMagic;

/**
 * Serialize the record set as a bank payload: record count, then per
 * record a CRC-framed body `[bodyLen][body][fnv1a(body)]`. The frame
 * localizes damage to one record, so a diagnostic pass can tell
 * "record 3 of bank A is bad" instead of just "bank A is bad".
 */
std::vector<char>
buildPayload(const std::map<std::string, Fingerprint> &store)
{
    std::vector<char> payload;
    putU64(payload, store.size());
    for (const auto &[channel, fp] : store) {
        std::vector<char> body;
        store::putString(body, channel);
        store::putString(body, fp.label());
        store::putWaveform(body, fp.raw());
        store::putWaveform(body, fp.residual());
        putU64(payload, body.size());
        payload.insert(payload.end(), body.begin(), body.end());
        putU64(payload, fnv1a(body));
    }
    return payload;
}

/**
 * Lenient bank-A walk run only after the strict read failed: locate
 * the first record frame that no longer verifies so the operator
 * learns *which* calibration burned, not just "bank A damaged".
 * Offsets are payload-relative (frame start); the id is best-effort —
 * it leads the record body and usually survives a corruption that
 * landed elsewhere in the frame.
 */
void
diagnoseBankA(const std::vector<char> &bytes, EpromLoadReport &report)
{
    if (bytes.size() < kBankHeaderSize)
        return;
    store::ByteReader hr(bytes.data(), kBankHeaderSize);
    uint64_t magic_ver, len, crc;
    hr.u64(magic_ver);
    hr.u64(len);
    hr.u64(crc);
    if (magic_ver != kMagicVer || len > bytes.size() - kBankHeaderSize) {
        report.detail += " (bank A header/framing damaged)";
        return;
    }
    store::ByteReader pr(bytes.data() + kBankHeaderSize, len);
    uint64_t count;
    if (!pr.u64(count))
        return;
    std::size_t offset = 8;
    for (uint64_t index = 0; index < count; ++index) {
        uint64_t body_len = 0, body_crc = 0;
        std::vector<char> body;
        const bool framed = pr.u64(body_len) &&
                            pr.raw(body, body_len) && pr.u64(body_crc);
        if (framed && fnv1a(body) == body_crc) {
            offset += 16 + body_len;
            continue;
        }
        report.failedRecordIndex = static_cast<int64_t>(index);
        report.failedRecordOffset = static_cast<int64_t>(offset);
        store::ByteReader br(body);
        std::string id;
        if (br.str(id))
            report.failedRecordId = id;
        report.detail += " (bank A record " + std::to_string(index) +
                         " at offset " + std::to_string(offset);
        if (!report.failedRecordId.empty())
            report.detail += ", id '" + report.failedRecordId + "'";
        report.detail += framed ? " failed its CRC)"
                                : " lost its framing)";
        return;
    }
    report.detail += " (bank A whole-bank checksum failed)";
}

/** Keep only the fingerprints of legacy-parsed records. */
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
    const std::vector<char> payload = buildPayload(store_);
    const uint64_t crc = fnv1a(payload);

    // Dual-bank image: bank A framed from the front, bank B from the
    // end (trailer fields reversed). The banks share no bytes, so any
    // single corruption leaves one complete copy intact.
    std::vector<char> image;
    putU64(image, kMagicVer);
    putU64(image, payload.size());
    putU64(image, crc);
    image.insert(image.end(), payload.begin(), payload.end());
    image.insert(image.end(), payload.begin(), payload.end());
    putU64(image, crc);
    putU64(image, payload.size());
    putU64(image, kMagicVer);

    // Atomic replace (temp sibling + flush + rename): a power cut
    // mid-save — including mid-*scrub*, where the file being replaced
    // is the only copy of the fleet's calibrations — leaves either the
    // previous image or the new one, never a torn hybrid.
    const store::WriteFault *fault =
        saveFault_.has_value() ? &*saveFault_ : nullptr;
    return store::atomicWriteFile(path, image, fault);
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
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        report.detail = "file not readable";
        return report;
    }
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    in.close();
    if (bytes.size() < 16) {
        report.detail = "file too short";
        return report;
    }

    // Build into a local map and swap only on success, so a damaged
    // image never disturbs the in-memory store.
    std::map<std::string, store::EnrollmentRecord> loaded;

    if (store::parseLegacyV1(bytes, loaded)) {
        report.ok = true;
        report.records = loaded.size();
        report.detail = "legacy v1 single-copy image";
        store_ = fingerprintsOf(loaded);
        return report;
    }

    if (store::parseLegacyV2Bank(bytes, false, loaded)) {
        report.ok = true;
        report.bankUsed = 0;
        report.records = loaded.size();
        store_ = fingerprintsOf(loaded);
        return report;
    }

    if (store::parseLegacyV2Bank(bytes, true, loaded)) {
        report.ok = true;
        report.bankUsed = 1;
        report.fellBack = true;
        report.records = loaded.size();
        report.detail = "bank A damaged; recovered from bank B";
        diagnoseBankA(bytes, report);
        divot_warn("enrollment file '%s': %s", path.c_str(),
                   report.detail.c_str());
        store_ = fingerprintsOf(loaded);
        if (scrub_on_fallback) {
            // Scrub: rewrite a pristine dual-bank image so the next
            // corruption again has a healthy sibling to fall back on.
            report.scrubbed = saveToFile(path);
            if (!report.scrubbed) {
                divot_warn("enrollment file '%s': scrub rewrite "
                           "failed", path.c_str());
            }
        }
        return report;
    }

    report.detail = "both banks damaged (or bad magic/version)";
    diagnoseBankA(bytes, report);
    divot_warn("enrollment file '%s' failed integrity check in both "
               "banks", path.c_str());
    return report;
}

} // namespace divot
