#include "store/codec.hh"

#include <algorithm>
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

namespace {

/** Store `v` little-endian at `p` (8 bytes). */
void
storeU64(char *p, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

/** Load a little-endian u64 from `p` (8 bytes). */
uint64_t
readU64(const char *p)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
        v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i]))
             << (8 * i);
    }
    return v;
}

uint64_t
bitsOf(double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

} // namespace

void
putU64(std::vector<char> &out, uint64_t v)
{
    char bytes[8];
    storeU64(bytes, v);
    out.insert(out.end(), bytes, bytes + 8);
}

void
putF64(std::vector<char> &out, double v)
{
    putU64(out, bitsOf(v));
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
    const std::size_t at = out.size();
    out.resize(at + 8 * w.size());
    for (std::size_t i = 0; i < w.size(); ++i)
        storeU64(out.data() + at + 8 * i, bitsOf(w[i]));
}

bool
ByteReader::u64(uint64_t &v)
{
    if (pos_ + 8 > n_)
        return false;
    v = readU64(data_ + pos_);
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

namespace {

void
appendRecordBody(std::vector<char> &out, const EnrollmentRecord &record)
{
    putString(out, record.id);
    putString(out, record.fp.label());
    putWaveform(out, record.fp.raw());
    putWaveform(out, record.fp.residual());
    putWaveform(out, record.nominal);
    putU64(out, record.flags);
    putU64(out, record.generation);
}

} // namespace

std::vector<char>
encodeRecordBody(const EnrollmentRecord &record)
{
    std::vector<char> body;
    appendRecordBody(body, record);
    return body;
}

bool
decodeRecordBody(const char *data, std::size_t n, EnrollmentRecord &out)
{
    ByteReader br(data, n);
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

bool
decodeRecordBody(const std::vector<char> &body, EnrollmentRecord &out)
{
    return decodeRecordBody(body.data(), body.size(), out);
}

ImageReader
ImageReader::of(const std::vector<char> &bytes)
{
    ImageReader reader;
    reader.size = bytes.size();
    reader.read = [&bytes](uint64_t offset, std::size_t n, char *out) {
        if (offset > bytes.size() || n > bytes.size() - offset)
            return false;
        if (n > 0)
            std::memcpy(out, bytes.data() + offset, n);
        return true;
    };
    return reader;
}

namespace {

constexpr uint64_t kFrameOverhead = 16; // bodyLen + crc around a body

/**
 * Payload = record count, then per record [bodyLen][body][crc]; v4
 * appends the index `[n]{[id][frameOffset][frameLen]}` (ascending id,
 * offsets relative to the payload start) and its locator
 * `[indexOffset][indexLen][fnv1a(index)]`.
 */
void
appendPayload(std::vector<char> &out,
              const std::map<std::string, EnrollmentRecord> &records)
{
    const std::size_t base = out.size();
    std::vector<char> index;
    putU64(out, records.size());
    putU64(index, records.size());
    for (const auto &[id, record] : records) {
        const std::size_t frame = out.size();
        putU64(out, 0); // bodyLen, patched below
        appendRecordBody(out, record);
        const std::size_t body_len = out.size() - frame - 8;
        storeU64(out.data() + frame, body_len);
        putU64(out, fnv1a(out.data() + frame + 8, body_len));
        putString(index, id);
        putU64(index, frame - base);
        putU64(index, body_len + kFrameOverhead);
    }
    const uint64_t index_offset = out.size() - base;
    out.insert(out.end(), index.begin(), index.end());
    putU64(out, index_offset);
    putU64(out, index.size());
    putU64(out, fnv1a(index));
}

/** A v4 payload's index locator. */
struct Locator
{
    uint64_t indexOffset = 0;
    uint64_t indexLen = 0;
    uint64_t crc = 0;
};

/**
 * Decode the locator ending a payload of `n` bytes.
 *
 * @return false unless its geometry is self-consistent: the index
 *         starts past the count field and ends at the locator
 */
bool
decodeLocator(const char *locator, uint64_t n, Locator &out)
{
    if (n < 8 + kIndexLocatorSize)
        return false;
    out.indexOffset = readU64(locator);
    out.indexLen = readU64(locator + 8);
    out.crc = readU64(locator + 16);
    const uint64_t index_end = n - kIndexLocatorSize;
    return out.indexOffset >= 8 && out.indexOffset <= index_end &&
           out.indexLen == index_end - out.indexOffset;
}

/** Where a bank's record frames end, and how many a walk may take. */
struct FrameRegion
{
    std::size_t end = 0;             //!< payload offset past the frames
    uint64_t maxFrames = UINT64_MAX; //!< walk limit
    bool bounded = true;             //!< `end` is the exact frame end
};

/**
 * v3 frames run to the end of the payload. v4 frames end where the
 * locator says the index starts; with a damaged locator the walk
 * stops after the declared count, short of the locator. `version` 0
 * (both headers damaged) is v4 when the locator is self-consistent.
 */
FrameRegion
frameRegion(const char *payload, std::size_t n, uint32_t version)
{
    FrameRegion region;
    region.end = n;
    if (version == kShardVersionV3)
        return region;
    Locator loc;
    if (n >= kIndexLocatorSize &&
        decodeLocator(payload + n - kIndexLocatorSize, n, loc)) {
        region.end = static_cast<std::size_t>(loc.indexOffset);
        return region;
    }
    if (version == kShardVersion) {
        region.end = n >= kIndexLocatorSize ? n - kIndexLocatorSize : n;
        region.maxFrames = n >= 8 ? readU64(payload) : 0;
        region.bounded = false;
    }
    return region;
}

/** Result of a lenient frame walk over one bank's payload bytes. */
struct WalkResult
{
    uint64_t declaredCount = 0; //!< leading count field (0 if absent)
    std::vector<std::optional<EnrollmentRecord>> records; //!< by index
    std::vector<RecordDamage> damaged;
    bool clean = false; //!< every frame verified and walk consumed all
    /** Every frame of the region located, and every damaged frame's
     *  id readable: an id the walk did not meet is provably absent. */
    bool complete = false;
};

/**
 * Walk a payload's record frames, recovering every record whose CRC
 * verifies. Damage is localized: a bad CRC with plausible framing
 * skips to the next frame; implausible framing ends the walk (frames
 * cannot be resynchronized without their length prefix).
 */
WalkResult
walkPayload(const char *data, std::size_t n, uint32_t version)
{
    WalkResult result;
    const FrameRegion region = frameRegion(data, n, version);
    ByteReader pr(data, region.end);
    if (!pr.u64(result.declaredCount))
        return result;

    bool all_ok = true;
    bool ids_readable = true;
    bool framing_lost = false;
    for (uint64_t index = 0; index < region.maxFrames; ++index) {
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
            framing_lost = true;
            break; // framing lost: cannot locate the next record
        }
        const char *body = data + pr.pos();
        uint64_t crc = 0;
        pr.skip(body_len);
        pr.u64(crc);

        EnrollmentRecord rec;
        if (fnv1a(body, body_len) == crc &&
            decodeRecordBody(body, body_len, rec)) {
            result.records.push_back(std::move(rec));
            continue;
        }
        RecordDamage dmg;
        dmg.index = index;
        dmg.offset = offset;
        // Best-effort id for the report: the id string leads the body
        // and often survives a corruption that lands elsewhere.
        ByteReader br(body, body_len);
        std::string maybe_id;
        if (br.str(maybe_id))
            dmg.id = std::move(maybe_id);
        else
            ids_readable = false;
        result.damaged.push_back(std::move(dmg));
        result.records.emplace_back(std::nullopt);
        all_ok = false;
    }
    result.clean = all_ok && region.bounded && pr.done() &&
                   result.records.size() == result.declaredCount;
    result.complete = region.bounded && !framing_lost && ids_readable;
    return result;
}

struct BankSpan
{
    bool located = false;
    std::size_t offset = 0;
    std::size_t length = 0;
    bool headerOk = false;
    uint32_t version = 0; //!< shard version when headerOk
    uint64_t crc = 0;     //!< stored whole-bank checksum
    bool crcOk = false;
};

/**
 * Locate a bank's payload span in an image of `size` bytes from its
 * 24-byte header (bank A) or trailer (bank B). Header fields are used
 * when they are self-consistent; otherwise the span falls back to the
 * structural midpoint (both banks carry the same payload, so an
 * undamaged image always splits evenly between the two 24-byte
 * frames). Does not verify the whole-bank checksum.
 */
BankSpan
locateBankFrame(const char *frame, uint64_t size, bool bank_b)
{
    BankSpan span;
    if (size < 2 * kBankHeaderSize)
        return span;
    const uint64_t body = size - 2 * kBankHeaderSize;
    const uint64_t expected = body / 2;

    uint64_t magic_ver, len;
    if (!bank_b) {
        magic_ver = readU64(frame);
        len = readU64(frame + 8);
        span.crc = readU64(frame + 16);
    } else {
        span.crc = readU64(frame);
        len = readU64(frame + 8);
        magic_ver = readU64(frame + 16);
    }

    const uint64_t version = magic_ver >> 32;
    span.headerOk = (magic_ver & 0xffffffffu) == kStoreMagic &&
                    (version == kShardVersionV3 ||
                     version == kShardVersion) &&
                    len <= body;
    span.version = span.headerOk ? static_cast<uint32_t>(version) : 0;
    span.length = static_cast<std::size_t>(span.headerOk ? len : expected);
    span.offset = bank_b ? size - kBankHeaderSize - span.length
                         : kBankHeaderSize;
    span.located = span.offset >= kBankHeaderSize &&
                   span.offset + span.length <= size - kBankHeaderSize;
    return span;
}

/** locateBankFrame plus the whole-bank checksum. */
BankSpan
locateBank(const std::vector<char> &bytes, bool bank_b)
{
    if (bytes.size() < 2 * kBankHeaderSize)
        return BankSpan{};
    BankSpan span = locateBankFrame(
        bytes.data() + (bank_b ? bytes.size() - kBankHeaderSize : 0),
        bytes.size(), bank_b);
    span.crcOk = span.located && span.headerOk &&
                 fnv1a(bytes.data() + span.offset, span.length) ==
                     span.crc;
    return span;
}

/** Version that frames `self`'s walk: its own header's, else the
 *  sibling bank's, else 0 (unknown). */
uint32_t
walkVersion(const BankSpan &self, const BankSpan &other)
{
    return self.headerOk ? self.version : other.version;
}

/** Lenient walk of the bank framed by `self` (empty when unlocated). */
WalkResult
walkBank(const std::vector<char> &bytes, const BankSpan &self,
         const BankSpan &other)
{
    if (!self.located)
        return WalkResult{};
    return walkPayload(bytes.data() + self.offset, self.length,
                       walkVersion(self, other));
}

/** Both banks' lenient walks of a whole image (at least 48 bytes). */
struct BankWalks
{
    WalkResult a;
    WalkResult b;
};

BankWalks
walkBanks(const std::vector<char> &bytes)
{
    const BankSpan a = locateBank(bytes, false);
    const BankSpan b = locateBank(bytes, true);
    return {walkBank(bytes, a, b), walkBank(bytes, b, a)};
}

/**
 * Find `id` in both banks' walks, bank A first.
 *
 * @return 1 = found (out filled), 0 = provably absent (some bank's
 *         walk is complete and met no frame of `id`), -1 = damaged
 */
int
lookupWalked(const BankWalks &walks, const std::string &id,
             EnrollmentRecord &out)
{
    for (const WalkResult *walk : {&walks.a, &walks.b}) {
        for (const auto &rec : walk->records) {
            if (rec.has_value() && rec->id == id) {
                out = *rec;
                return 1;
            }
        }
    }
    for (const WalkResult *walk : {&walks.a, &walks.b}) {
        for (const RecordDamage &dmg : walk->damaged) {
            if (dmg.id == id)
                return -1;
        }
    }
    return walks.a.complete || walks.b.complete ? 0 : -1;
}

/** One index entry: where a record's frame sits in the payload. */
struct IndexEntry
{
    std::string id;
    uint64_t offset = 0; //!< frame offset within the payload
    uint64_t length = 0; //!< frame length, bodyLen + body + crc
};

/** A verified v4 record index. */
struct ShardIndex
{
    std::vector<IndexEntry> entries; //!< ascending id
    uint64_t payloadLength = 0;      //!< per bank
};

/** Decode an index body whose checksum verified. */
bool
decodeIndex(const std::vector<char> &body, uint64_t frame_end,
            std::vector<IndexEntry> &out)
{
    ByteReader br(body);
    uint64_t n = 0;
    // Every entry takes at least 24 bytes: bounds the reservation.
    if (!br.u64(n) || n > br.remaining() / 24)
        return false;
    out.clear();
    out.reserve(static_cast<std::size_t>(n));
    for (uint64_t i = 0; i < n; ++i) {
        IndexEntry e;
        if (!br.str(e.id) || !br.u64(e.offset) || !br.u64(e.length))
            return false;
        if (e.offset < 8 || e.length < kFrameOverhead ||
            e.offset > frame_end || e.length > frame_end - e.offset)
            return false;
        if (!out.empty() && !(out.back().id < e.id))
            return false;
        out.push_back(std::move(e));
    }
    return br.done();
}

/** Read and verify the index of the bank framed by `span`. */
bool
readBankIndex(const ImageReader &image, const BankSpan &span,
              ShardIndex &index)
{
    if (!span.located || span.version != kShardVersion ||
        span.length < 8 + kIndexLocatorSize)
        return false;
    char raw[kIndexLocatorSize];
    Locator loc;
    if (!image.read(span.offset + span.length - kIndexLocatorSize,
                    kIndexLocatorSize, raw) ||
        !decodeLocator(raw, span.length, loc))
        return false;
    std::vector<char> body(static_cast<std::size_t>(loc.indexLen));
    if (!image.read(span.offset + loc.indexOffset, body.size(),
                    body.data()) ||
        fnv1a(body) != loc.crc)
        return false;
    index.payloadLength = span.length;
    return decodeIndex(body, loc.indexOffset, index.entries);
}

/** Bank A's index, else bank B's; false when neither verifies. */
bool
loadShardIndex(const ImageReader &image, ShardIndex &index)
{
    if (image.size < 2 * kBankHeaderSize)
        return false;
    char frame[kBankHeaderSize];
    if (image.read(0, kBankHeaderSize, frame) &&
        readBankIndex(image, locateBankFrame(frame, image.size, false),
                      index))
        return true;
    return image.read(image.size - kBankHeaderSize, kBankHeaderSize,
                      frame) &&
           readBankIndex(image, locateBankFrame(frame, image.size, true),
                         index);
}

/**
 * Read the frame of `entry` from the bank whose payload starts at
 * image offset `payload`; true once its CRC verifies, the body
 * decodes and the decoded id is the indexed one.
 */
bool
readIndexedFrame(const ImageReader &image, uint64_t payload,
                 const IndexEntry &entry, EnrollmentRecord &out)
{
    std::vector<char> frame(static_cast<std::size_t>(entry.length));
    if (!image.read(payload + entry.offset, frame.size(), frame.data()))
        return false;
    const uint64_t body_len = readU64(frame.data());
    if (body_len != entry.length - kFrameOverhead)
        return false;
    const char *body = frame.data() + 8;
    EnrollmentRecord rec;
    if (fnv1a(body, body_len) != readU64(body + body_len) ||
        !decodeRecordBody(body, body_len, rec) || rec.id != entry.id)
        return false;
    out = std::move(rec);
    return true;
}

} // namespace

std::vector<char>
buildShardImage(const std::map<std::string, EnrollmentRecord> &records)
{
    const uint64_t magic_ver =
        (static_cast<uint64_t>(kShardVersion) << 32) | kStoreMagic;
    // Bank A's header is patched once the payload length is known;
    // bank B mirrors the payload in place.
    std::vector<char> image(kBankHeaderSize);
    appendPayload(image, records);
    const std::size_t len = image.size() - kBankHeaderSize;
    const uint64_t crc = fnv1a(image.data() + kBankHeaderSize, len);
    image.resize(2 * len + 2 * kBankHeaderSize);
    char *a = image.data();
    char *b = a + kBankHeaderSize + len;
    std::memcpy(b, a + kBankHeaderSize, len);
    storeU64(a, magic_ver);
    storeU64(a + 8, len);
    storeU64(a + 16, crc);
    storeU64(b + len, crc);
    storeU64(b + len + 8, len);
    storeU64(b + len + 16, magic_ver);
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
        WalkResult walk = walkBank(bytes, span, bank == 0 ? b : a);
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
        if (bank == 1) {
            report.detail = "bank A damaged; recovered from bank B";
            // Locate bank A's bad frames for the operator report.
            report.damagedA = walkBank(bytes, a, b).damaged;
        }
        return report;
    }

    // Salvage: both whole-bank checks failed. Recover per record from
    // both banks; index i of bank A is the same record as index i of
    // bank B, so a record is lost only when both frames are damaged.
    const WalkResult wa = walkBank(bytes, a, b);
    const WalkResult wb = walkBank(bytes, b, a);
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
    // A slot misread past damage can peek the id of a record that
    // another slot recovered; that record is not lost.
    report.unrecoverable.erase(
        std::remove_if(report.unrecoverable.begin(),
                       report.unrecoverable.end(),
                       [&out](const RecordDamage &d) {
                           return !d.id.empty() && out.count(d.id) > 0;
                       }),
        report.unrecoverable.end());

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
    return lookupWalked(walkBanks(bytes), id, out);
}

std::vector<RecordRead>
readShardRecords(const ImageReader &image,
                 const std::vector<std::string> &ids)
{
    std::vector<RecordRead> reads(ids.size());
    ShardIndex index;
    if (loadShardIndex(image, index)) {
        // Both banks carry the same payload layout, so a frame's
        // payload offset addresses its mirror in bank B too.
        const uint64_t bank_a = kBankHeaderSize;
        const uint64_t bank_b =
            image.size - kBankHeaderSize - index.payloadLength;
        for (std::size_t i = 0; i < ids.size(); ++i) {
            const auto it = std::lower_bound(
                index.entries.begin(), index.entries.end(), ids[i],
                [](const IndexEntry &e, const std::string &id) {
                    return e.id < id;
                });
            if (it == index.entries.end() || it->id != ids[i])
                continue; // provably absent: the index verified
            RecordRead &read = reads[i];
            read.status =
                readIndexedFrame(image, bank_a, *it, read.record) ||
                        readIndexedFrame(image, bank_b, *it, read.record)
                    ? DbGetStatus::Ok
                    : DbGetStatus::Unrecoverable;
        }
        return reads;
    }

    // No verified index: a v1–v3 image, or both indexes damaged. Walk
    // the whole image once and answer every id from the walks.
    std::vector<char> bytes(static_cast<std::size_t>(image.size));
    const bool whole = bytes.size() >= 2 * kBankHeaderSize &&
                       image.read(0, bytes.size(), bytes.data());
    const BankWalks walks = whole ? walkBanks(bytes) : BankWalks{};
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const int found =
            whole ? lookupWalked(walks, ids[i], reads[i].record) : -1;
        reads[i].status = found == 1   ? DbGetStatus::Ok
                          : found == 0 ? DbGetStatus::Missing
                                       : DbGetStatus::Unrecoverable;
    }
    return reads;
}

bool
readShardIndexIds(const ImageReader &image, std::vector<std::string> &ids)
{
    ShardIndex index;
    if (!loadShardIndex(image, index))
        return false;
    ids.clear();
    ids.reserve(index.entries.size());
    for (IndexEntry &entry : index.entries)
        ids.push_back(std::move(entry.id));
    return true;
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
    const uint64_t magic_ver = readU64(bytes.data());
    if ((magic_ver & 0xffffffffu) != kStoreMagic ||
        (magic_ver >> 32) != kLegacyV1) {
        return false;
    }
    if (fnv1a(bytes.data() + 16, bytes.size() - 16) !=
        readU64(bytes.data() + 8)) {
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
    const uint64_t magic_ver = readU64(bytes.data() + (bank_b ? t + 16 : t));
    const uint64_t len = readU64(bytes.data() + t + 8);
    const uint64_t crc = readU64(bytes.data() + (bank_b ? t : t + 16));
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
