#include "store/codec.hh"

#include <cstring>
#include <optional>

namespace divot::store {

uint64_t
fnv1a(const char *data, std::size_t n)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= static_cast<unsigned char>(data[i]);
        h *= 0x100000001b3ULL;
    }
    return h;
}

uint64_t
fnv1a(const std::vector<char> &bytes)
{
    return fnv1a(bytes.data(), bytes.size());
}

void
putU64(std::vector<char> &out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putF64(std::vector<char> &out, double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    putU64(out, bits);
}

void
putString(std::vector<char> &out, const std::string &s)
{
    putU64(out, s.size());
    out.insert(out.end(), s.begin(), s.end());
}

void
putWaveform(std::vector<char> &out, const Waveform &w)
{
    putF64(out, w.dt());
    putF64(out, w.startTime());
    putU64(out, w.size());
    for (std::size_t i = 0; i < w.size(); ++i)
        putF64(out, w[i]);
}

bool
ByteReader::u64(uint64_t &v)
{
    if (pos_ + 8 > n_)
        return false;
    v = 0;
    for (int i = 0; i < 8; ++i) {
        v |= static_cast<uint64_t>(
                 static_cast<unsigned char>(data_[pos_ + i]))
             << (8 * i);
    }
    pos_ += 8;
    return true;
}

bool
ByteReader::f64(double &v)
{
    uint64_t bits;
    if (!u64(bits))
        return false;
    std::memcpy(&v, &bits, sizeof v);
    return true;
}

bool
ByteReader::str(std::string &s)
{
    uint64_t len;
    if (!u64(len) || len > remaining())
        return false;
    s.assign(data_ + pos_, data_ + pos_ + len);
    pos_ += len;
    return true;
}

bool
ByteReader::waveform(Waveform &w)
{
    double dt, t0;
    uint64_t n;
    if (!f64(dt) || !f64(t0) || !u64(n))
        return false;
    if (n > 0 && dt <= 0.0)
        return false;
    if (n > (1ull << 32) || n * 8 > remaining())
        return false;
    if (n == 0) {
        w = Waveform();
        return true;
    }
    std::vector<double> samples(n);
    for (auto &x : samples) {
        if (!f64(x))
            return false;
    }
    w = Waveform(dt, std::move(samples), t0);
    return true;
}

bool
ByteReader::raw(std::vector<char> &out, uint64_t len)
{
    if (len > remaining())
        return false;
    out.assign(data_ + pos_, data_ + pos_ + len);
    pos_ += len;
    return true;
}

bool
ByteReader::skip(uint64_t len)
{
    if (len > remaining())
        return false;
    pos_ += len;
    return true;
}

std::size_t
EnrollmentRecord::residentBytes() const
{
    return sizeof(EnrollmentRecord) + id.size() + fp.label().size() +
           8 * (fp.raw().size() + fp.residual().size() +
                nominal.size());
}

std::vector<char>
encodeRecordBody(const EnrollmentRecord &record)
{
    std::vector<char> body;
    putString(body, record.id);
    putString(body, record.fp.label());
    putWaveform(body, record.fp.raw());
    putWaveform(body, record.fp.residual());
    putWaveform(body, record.nominal);
    putU64(body, record.flags);
    putU64(body, record.generation);
    return body;
}

bool
decodeRecordBody(const std::vector<char> &body, EnrollmentRecord &out)
{
    ByteReader br(body);
    EnrollmentRecord rec;
    std::string label;
    Waveform raw, residual;
    if (!br.str(rec.id) || !br.str(label) || !br.waveform(raw) ||
        !br.waveform(residual) || !br.waveform(rec.nominal) ||
        !br.u64(rec.flags) || !br.u64(rec.generation) || !br.done()) {
        return false;
    }
    if (raw.empty())
        return false; // a record must carry a usable fingerprint
    rec.fp = Fingerprint::fromParts(std::move(raw), std::move(residual),
                                    std::move(label));
    out = std::move(rec);
    return true;
}

namespace {

/** Payload = record count, then per record [bodyLen][body][crc]. */
std::vector<char>
buildPayload(const std::map<std::string, EnrollmentRecord> &records)
{
    std::vector<char> payload;
    putU64(payload, records.size());
    for (const auto &[id, record] : records) {
        const std::vector<char> body = encodeRecordBody(record);
        putU64(payload, body.size());
        payload.insert(payload.end(), body.begin(), body.end());
        putU64(payload, fnv1a(body));
    }
    return payload;
}

/** Result of a lenient frame walk over one bank's payload bytes. */
struct WalkResult
{
    uint64_t declaredCount = 0; //!< leading count field (0 if absent)
    std::vector<std::optional<EnrollmentRecord>> records; //!< by index
    std::vector<RecordDamage> damaged;
    bool clean = false; //!< every frame verified and walk consumed all
};

/**
 * Walk a payload's record frames, recovering every record whose CRC
 * verifies. Damage is localized: a bad CRC with plausible framing
 * skips to the next frame; implausible framing ends the walk (frames
 * cannot be resynchronized without their length prefix).
 */
WalkResult
walkPayload(const char *data, std::size_t n)
{
    WalkResult result;
    ByteReader pr(data, n);
    if (!pr.u64(result.declaredCount))
        return result;

    bool all_ok = true;
    for (uint64_t index = 0;; ++index) {
        if (pr.done())
            break;
        const uint64_t offset = pr.pos();
        uint64_t body_len = 0;
        // Overflow-safe frame guard: body_len comes straight from the
        // medium, so a rotted length near 2^64 must not wrap the sum
        // past the real bound.
        if (!pr.u64(body_len) || pr.remaining() < 8 ||
            body_len > pr.remaining() - 8) {
            RecordDamage dmg;
            dmg.index = index;
            dmg.offset = offset;
            result.damaged.push_back(std::move(dmg));
            all_ok = false;
            break; // framing lost: cannot locate the next record
        }
        std::vector<char> body;
        uint64_t crc = 0;
        pr.raw(body, body_len);
        pr.u64(crc);

        EnrollmentRecord rec;
        if (fnv1a(body) == crc && decodeRecordBody(body, rec)) {
            result.records.push_back(std::move(rec));
            continue;
        }
        RecordDamage dmg;
        dmg.index = index;
        dmg.offset = offset;
        // Best-effort id for the report: the id string leads the body
        // and often survives a corruption that lands elsewhere.
        ByteReader br(body);
        std::string maybe_id;
        if (br.str(maybe_id))
            dmg.id = std::move(maybe_id);
        result.damaged.push_back(std::move(dmg));
        result.records.emplace_back(std::nullopt);
        all_ok = false;
    }
    result.clean = all_ok && pr.done() &&
                   result.records.size() == result.declaredCount;
    return result;
}

struct BankSpan
{
    bool located = false;
    std::size_t offset = 0;
    std::size_t length = 0;
    bool crcOk = false;
};

uint64_t
readU64At(const std::vector<char> &bytes, std::size_t pos)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
        v |= static_cast<uint64_t>(
                 static_cast<unsigned char>(bytes[pos + i]))
             << (8 * i);
    }
    return v;
}

/**
 * Locate a bank's payload span. Header fields are used when they are
 * self-consistent; otherwise the span falls back to the structural
 * midpoint (both banks carry the same payload, so an undamaged image
 * always splits evenly between the two 24-byte frames).
 */
BankSpan
locateBank(const std::vector<char> &bytes, bool bank_b)
{
    BankSpan span;
    if (bytes.size() < 2 * kBankHeaderSize)
        return span;
    const std::size_t body = bytes.size() - 2 * kBankHeaderSize;
    const std::size_t expected = body / 2;

    uint64_t magic_ver, len, crc;
    if (!bank_b) {
        magic_ver = readU64At(bytes, 0);
        len = readU64At(bytes, 8);
        crc = readU64At(bytes, 16);
    } else {
        const std::size_t t = bytes.size() - kBankHeaderSize;
        crc = readU64At(bytes, t);
        len = readU64At(bytes, t + 8);
        magic_ver = readU64At(bytes, t + 16);
    }

    const bool header_ok =
        (magic_ver & 0xffffffffu) == kStoreMagic &&
        (magic_ver >> 32) == kShardVersion && len <= body;
    span.length = header_ok ? static_cast<std::size_t>(len) : expected;
    span.offset = bank_b ? bytes.size() - kBankHeaderSize - span.length
                         : kBankHeaderSize;
    if (span.offset < kBankHeaderSize ||
        span.offset + span.length > bytes.size() - kBankHeaderSize) {
        return span;
    }
    span.located = true;
    span.crcOk = header_ok &&
                 fnv1a(bytes.data() + span.offset, span.length) == crc;
    return span;
}

} // namespace

std::vector<char>
buildShardImage(const std::map<std::string, EnrollmentRecord> &records)
{
    const std::vector<char> payload = buildPayload(records);
    const uint64_t magic_ver =
        (static_cast<uint64_t>(kShardVersion) << 32) | kStoreMagic;
    const uint64_t crc = fnv1a(payload);

    std::vector<char> image;
    image.reserve(2 * payload.size() + 2 * kBankHeaderSize);
    putU64(image, magic_ver);
    putU64(image, payload.size());
    putU64(image, crc);
    image.insert(image.end(), payload.begin(), payload.end());
    image.insert(image.end(), payload.begin(), payload.end());
    putU64(image, crc);
    putU64(image, payload.size());
    putU64(image, magic_ver);
    return image;
}

ShardParseReport
parseShardImage(const std::vector<char> &bytes,
                std::map<std::string, EnrollmentRecord> &out)
{
    ShardParseReport report;
    out.clear();
    if (bytes.size() < 2 * kBankHeaderSize) {
        report.detail = "image too short";
        return report;
    }

    const BankSpan a = locateBank(bytes, false);
    const BankSpan b = locateBank(bytes, true);
    // Bank health is reported independently of which bank serves the
    // read: the background scrub repairs latent standby-bank damage
    // long before the primary bank fails too.
    report.bankAHealthy = a.located && a.crcOk;
    report.bankBHealthy = b.located && b.crcOk;

    // Strict paths first: a verified whole-bank CRC means every record
    // inside is intact, so the walk is just deserialization.
    for (int bank = 0; bank < 2; ++bank) {
        const BankSpan &span = bank == 0 ? a : b;
        if (!span.located || !span.crcOk)
            continue;
        WalkResult walk =
            walkPayload(bytes.data() + span.offset, span.length);
        if (!walk.clean)
            continue; // CRC collision with mangled framing: salvage
        for (auto &rec : walk.records) {
            EnrollmentRecord r = std::move(*rec);
            out[r.id] = std::move(r);
        }
        report.ok = true;
        report.bankUsed = bank;
        report.fellBack = bank == 1;
        report.records = out.size();
        if (bank == 1)
            report.detail = "bank A damaged; recovered from bank B";
        return report;
    }

    // Salvage: both whole-bank checks failed. Recover per record from
    // both banks; index i of bank A is the same record as index i of
    // bank B, so a record is lost only when both frames are damaged.
    WalkResult wa;
    if (a.located)
        wa = walkPayload(bytes.data() + a.offset, a.length);
    WalkResult wb;
    if (b.located)
        wb = walkPayload(bytes.data() + b.offset, b.length);
    report.damagedA = wa.damaged;
    report.damagedB = wb.damaged;

    std::size_t slots =
        std::max(wa.records.size(), wb.records.size());
    // A torn/truncated image can lose trailing frames in both banks;
    // the declared record count (when sane in either bank) tells us
    // how many records existed so the loss is reported, not silent.
    // (The count field itself can be the corrupted byte, so cap how
    // far it may extend the report: a count wildly beyond what the
    // frames support is damage, not information.)
    const std::size_t sane_bound =
        slots + wa.damaged.size() + wb.damaged.size() + 64;
    for (const WalkResult *walk : {&wa, &wb}) {
        if (walk->declaredCount <= sane_bound)
            slots = std::max(
                slots, static_cast<std::size_t>(walk->declaredCount));
    }
    if (slots == 0 && wa.damaged.empty() && wb.damaged.empty()) {
        report.detail = "both banks unreadable";
        return report;
    }
    for (std::size_t i = 0; i < slots; ++i) {
        const std::optional<EnrollmentRecord> *pick = nullptr;
        if (i < wa.records.size() && wa.records[i].has_value())
            pick = &wa.records[i];
        else if (i < wb.records.size() && wb.records[i].has_value())
            pick = &wb.records[i];
        if (pick != nullptr) {
            EnrollmentRecord r = **pick;
            out[r.id] = std::move(r);
            continue;
        }
        RecordDamage dmg;
        dmg.index = i;
        for (const auto &list : {wa.damaged, wb.damaged}) {
            for (const RecordDamage &d : list) {
                if (d.index == i) {
                    dmg.offset = d.offset;
                    if (dmg.id.empty())
                        dmg.id = d.id;
                }
            }
        }
        report.unrecoverable.push_back(std::move(dmg));
    }

    report.ok = true;
    report.bankUsed = 2;
    report.fellBack = true;
    report.salvaged = true;
    report.records = out.size();
    report.detail = "both banks damaged; per-record salvage recovered " +
                    std::to_string(out.size()) + " records, lost " +
                    std::to_string(report.unrecoverable.size());
    return report;
}

int
findShardRecord(const std::vector<char> &bytes, const std::string &id,
                EnrollmentRecord &out)
{
    if (bytes.size() < 2 * kBankHeaderSize)
        return -1;
    bool damaged_hit = false;
    bool complete_walk = false;
    for (int bank = 0; bank < 2; ++bank) {
        const BankSpan span = locateBank(bytes, bank == 1);
        if (!span.located)
            continue;
        ByteReader pr(bytes.data() + span.offset, span.length);
        uint64_t count = 0;
        if (!pr.u64(count))
            continue;
        bool walked_all = true;
        while (!pr.done()) {
            uint64_t body_len = 0;
            // Overflow-safe: a rotted length field near 2^64 would
            // wrap `body_len + 8` past the bound and let the reader
            // below run off the shard buffer.
            if (!pr.u64(body_len) || pr.remaining() < 8 ||
                body_len > pr.remaining() - 8) {
                walked_all = false;
                break;
            }
            const char *body = bytes.data() + span.offset + pr.pos();
            if (!pr.skip(body_len)) {
                walked_all = false;
                break;
            }
            uint64_t crc = 0;
            pr.u64(crc);

            // Peek the id (leads the body) before paying for the CRC.
            ByteReader br(body, body_len);
            std::string rec_id;
            if (!br.str(rec_id)) {
                walked_all = false; // mangled frame: ids beyond are
                continue;           // still reachable via framing
            }
            if (rec_id != id)
                continue;
            if (fnv1a(body, body_len) == crc) {
                std::vector<char> copy(body, body + body_len);
                if (decodeRecordBody(copy, out))
                    return 1;
            }
            damaged_hit = true;
        }
        complete_walk = complete_walk || walked_all;
    }
    if (damaged_hit)
        return -1;
    return complete_walk ? 0 : -1;
}

namespace {

/** Legacy waveform: like ByteReader::waveform, but dt must be positive
 *  even for an empty waveform, as the EnrollmentStore reader always
 *  required. */
bool
readLegacyWaveform(ByteReader &br, Waveform &w)
{
    double dt, t0;
    uint64_t n;
    if (!br.f64(dt) || !br.f64(t0) || !br.u64(n))
        return false;
    if (dt <= 0.0 || n > (1ull << 32) || n * 8 > br.remaining())
        return false;
    std::vector<double> samples(n);
    for (auto &x : samples)
        br.f64(x);
    w = Waveform(dt, std::move(samples), t0);
    return true;
}

/** v1/v2 record body: [channel][label][raw][residual]. */
bool
decodeLegacyBody(ByteReader &br, EnrollmentRecord &out)
{
    EnrollmentRecord rec;
    std::string label;
    Waveform raw, residual;
    if (!br.str(rec.id) || !br.str(label) ||
        !readLegacyWaveform(br, raw) ||
        !readLegacyWaveform(br, residual)) {
        return false;
    }
    if (raw.empty())
        return false;
    rec.fp = Fingerprint::fromParts(std::move(raw), std::move(residual),
                                    std::move(label));
    out = std::move(rec);
    return true;
}

/** Strict v2 bank payload: count, then [bodyLen][body][crc] frames. */
bool
parseLegacyPayload(const char *data, std::size_t n,
                   std::map<std::string, EnrollmentRecord> &out)
{
    ByteReader pr(data, n);
    uint64_t count = 0;
    if (!pr.u64(count))
        return false;
    std::map<std::string, EnrollmentRecord> loaded;
    for (uint64_t i = 0; i < count; ++i) {
        uint64_t body_len = 0, crc = 0;
        std::vector<char> body;
        if (!pr.u64(body_len) || !pr.raw(body, body_len) ||
            !pr.u64(crc) || fnv1a(body) != crc) {
            return false;
        }
        ByteReader br(body);
        EnrollmentRecord rec;
        if (!decodeLegacyBody(br, rec) || !br.done())
            return false;
        loaded[rec.id] = std::move(rec);
    }
    if (!pr.done())
        return false;
    out = std::move(loaded);
    return true;
}

} // namespace

bool
parseLegacyV1(const std::vector<char> &bytes,
              std::map<std::string, EnrollmentRecord> &out)
{
    if (bytes.size() < 16)
        return false;
    const uint64_t magic_ver = readU64At(bytes, 0);
    if ((magic_ver & 0xffffffffu) != kStoreMagic ||
        (magic_ver >> 32) != kLegacyV1) {
        return false;
    }
    if (fnv1a(bytes.data() + 16, bytes.size() - 16) !=
        readU64At(bytes, 8)) {
        return false;
    }

    // v1 records carry no per-record framing.
    ByteReader pr(bytes.data() + 16, bytes.size() - 16);
    uint64_t count = 0;
    if (!pr.u64(count))
        return false;
    std::map<std::string, EnrollmentRecord> loaded;
    for (uint64_t i = 0; i < count; ++i) {
        EnrollmentRecord rec;
        if (!decodeLegacyBody(pr, rec))
            return false;
        loaded[rec.id] = std::move(rec);
    }
    if (!pr.done())
        return false;
    out = std::move(loaded);
    return true;
}

bool
parseLegacyV2Bank(const std::vector<char> &bytes, bool bank_b,
                  std::map<std::string, EnrollmentRecord> &out)
{
    if (bytes.size() < 2 * kBankHeaderSize)
        return false;
    // Bank A: [magicver][len][crc] at the front. Bank B: the same
    // fields mirrored in the trailer, [crc][len][magicver].
    const std::size_t t = bank_b ? bytes.size() - kBankHeaderSize : 0;
    const uint64_t magic_ver = readU64At(bytes, bank_b ? t + 16 : t);
    const uint64_t len = readU64At(bytes, t + 8);
    const uint64_t crc = readU64At(bytes, bank_b ? t : t + 16);
    if ((magic_ver & 0xffffffffu) != kStoreMagic ||
        (magic_ver >> 32) != kLegacyV2 ||
        len > bytes.size() - kBankHeaderSize) {
        return false;
    }
    // Bank A's payload follows its header; bank B's ends at its
    // trailer.
    const std::size_t offset = bank_b ? t - len : kBankHeaderSize;
    if (fnv1a(bytes.data() + offset, len) != crc)
        return false;
    return parseLegacyPayload(bytes.data() + offset, len, out);
}

int
parseLegacyImage(const std::vector<char> &bytes,
                 std::map<std::string, EnrollmentRecord> &out)
{
    if (parseLegacyV1(bytes, out))
        return 1;
    if (parseLegacyV2Bank(bytes, false, out) ||
        parseLegacyV2Bank(bytes, true, out)) {
        return 2;
    }
    return 0;
}

uint64_t
channelHash(const std::string &id)
{
    return fnv1a(id.data(), id.size());
}

} // namespace divot::store
