/**
 * @file
 * Byte codec shared by every enrollment persistence format.
 *
 * Three formats read through this module:
 *
 *  - v1: legacy single-copy EPROM image (read-only compatibility).
 *  - v2: the dual-bank EnrollmentStore image (PR 2).
 *  - v3: EnrollmentDb shard images — the same dual-bank + per-record
 *    CRC discipline, with a richer record body (nominal response,
 *    lifecycle flags, generation counter) so a fleet channel can be
 *    rehydrated without re-deriving anything.
 *
 * The dual-bank frame is bootloader-style: bank A is framed from the
 * front of the image (`[magicver][len][crc][payload]`), bank B from
 * the end with the trailer fields mirrored in reverse, so the two
 * banks never share bytes and any single corrupted byte damages
 * exactly one of them. Inside a payload every record is individually
 * CRC-framed (`[bodyLen][body][fnv1a(body)]`), which is what lets the
 * salvage path say "record 3 at offset 217 is bad" instead of "bank A
 * is bad" — and lets a reader recover every intact record from a
 * payload whose whole-bank checksum no longer verifies.
 */

#ifndef DIVOT_STORE_CODEC_HH
#define DIVOT_STORE_CODEC_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fingerprint/fingerprint.hh"
#include "signal/waveform.hh"

namespace divot::store {

/** FNV-1a over a byte range — the integrity check of every frame. */
uint64_t fnv1a(const char *data, std::size_t n);
uint64_t fnv1a(const std::vector<char> &bytes);

/** @name Little-endian primitive writers. */
///@{
void putU64(std::vector<char> &out, uint64_t v);
void putF64(std::vector<char> &out, double v);
void putString(std::vector<char> &out, const std::string &s);
void putWaveform(std::vector<char> &out, const Waveform &w);
///@}

/** Bounds-checked sequential reader over a byte range. */
class ByteReader
{
  public:
    ByteReader(const char *data, std::size_t n) : data_(data), n_(n) {}
    explicit ByteReader(const std::vector<char> &bytes)
        : data_(bytes.data()), n_(bytes.size())
    {}

    bool u64(uint64_t &v);
    bool f64(double &v);
    bool str(std::string &s);
    bool waveform(Waveform &w);
    bool raw(std::vector<char> &out, uint64_t len);
    bool skip(uint64_t len);

    bool done() const { return pos_ == n_; }
    std::size_t pos() const { return pos_; }
    std::size_t remaining() const { return n_ - pos_; }

  private:
    const char *data_;
    std::size_t n_;
    std::size_t pos_ = 0;
};

/** Lifecycle flags persisted with a record. */
enum RecordFlag : uint64_t
{
    kRecordQuarantined = 1u << 0,    //!< operator fenced the channel
    kRecordPendingReenroll = 1u << 1 //!< calibration lost; must re-enroll
};

/** One durable enrollment record (shard-image currency). */
struct EnrollmentRecord
{
    std::string id;       //!< channel identifier (db key)
    Fingerprint fp;       //!< enrollment fingerprint
    Waveform nominal;     //!< nominal design response (may be empty)
    uint64_t flags = 0;   //!< RecordFlag bits
    uint64_t generation = 0; //!< bumped on every re-calibration

    /** @return approximate resident footprint, bytes. */
    std::size_t residentBytes() const;
};

/** Serialize / parse one record body (no CRC frame). */
std::vector<char> encodeRecordBody(const EnrollmentRecord &record);
bool decodeRecordBody(const std::vector<char> &body,
                      EnrollmentRecord &out);

/** Where damage landed, for operator-facing reports. */
struct RecordDamage
{
    uint64_t index = 0;  //!< record position within the payload
    uint64_t offset = 0; //!< byte offset of the frame in the payload
    std::string id;      //!< channel id when the body was parseable
};

/** Outcome of reading one dual-bank shard image. */
struct ShardParseReport
{
    bool ok = false;        //!< at least one complete bank verified,
                            //!< or salvage recovered records
    int bankUsed = -1;      //!< 0 = A, 1 = B, 2 = salvage merge
    bool fellBack = false;  //!< bank A failed whole-bank verification
    bool salvaged = false;  //!< both banks failed; per-record salvage
    bool bankAHealthy = false; //!< bank A located and whole-bank CRC ok
    bool bankBHealthy = false; //!< bank B located and whole-bank CRC ok
    uint64_t records = 0;   //!< records recovered
    std::vector<RecordDamage> damagedA; //!< bad frames seen in bank A
    std::vector<RecordDamage> damagedB; //!< bad frames seen in bank B
    std::vector<RecordDamage> unrecoverable; //!< bad in both banks
    std::string detail;     //!< human-readable cause
};

/** Build a v3 dual-bank shard image from a sorted record map. */
std::vector<char>
buildShardImage(const std::map<std::string, EnrollmentRecord> &records);

/**
 * Parse a v3 shard image: bank A strict, bank B strict, then
 * per-record salvage across both banks. Salvage recovers every record
 * whose CRC frame verifies in either bank; frames damaged in both are
 * reported in `unrecoverable` (by payload index/offset, with the id
 * when the body is still parseable).
 *
 * @return report; `out` holds the recovered records (empty on ok=false)
 */
ShardParseReport
parseShardImage(const std::vector<char> &bytes,
                std::map<std::string, EnrollmentRecord> &out);

/**
 * Scan a shard image for a single record without materializing the
 * rest of the shard — the hydration hot path. Tries bank A's frame
 * walk first, then bank B's.
 *
 * @return 1 = found (out filled), 0 = provably absent, -1 = the
 *         record's frames are damaged in every readable bank
 */
int findShardRecord(const std::vector<char> &bytes,
                    const std::string &id, EnrollmentRecord &out);

/**
 * @name Legacy readers — the only v1/v2 parsers; the EnrollmentStore
 * loader and parseLegacyImage both use them. Records come back as v3
 * records carrying only id and fingerprint (empty nominal response,
 * zero flags/generation — the fields the old formats never stored).
 * Strict: `out` is replaced only when every check passes.
 */
///@{
/** v1 single-copy image: `[magicver][fnv1a(payload)][payload]`, the
 *  records unframed. */
bool parseLegacyV1(const std::vector<char> &bytes,
                   std::map<std::string, EnrollmentRecord> &out);

/** One bank of a v2 dual-bank image: bank A framed from the front
 *  (`[magicver][len][crc][payload]`), bank B from the end with the
 *  trailer fields mirrored. Checks the header, the whole-bank
 *  checksum, and every record frame and body. */
bool parseLegacyV2Bank(const std::vector<char> &bytes, bool bankB,
                       std::map<std::string, EnrollmentRecord> &out);
///@}

/**
 * Parse a legacy image into v3 records: v1, else v2 bank A, else v2
 * bank B.
 *
 * @return detected format version (1 or 2) on success, 0 when the
 *         bytes parse as neither (out untouched)
 */
int parseLegacyImage(const std::vector<char> &bytes,
                     std::map<std::string, EnrollmentRecord> &out);

/** Magic/version constants shared with the legacy EnrollmentStore. */
constexpr uint32_t kStoreMagic = 0x44495654; // "DIVT"
constexpr uint32_t kLegacyV1 = 1;  //!< single-copy EPROM image
constexpr uint32_t kLegacyV2 = 2;  //!< dual-bank EnrollmentStore image
constexpr uint32_t kShardVersion = 3;
constexpr std::size_t kBankHeaderSize = 24; // magic/ver + len + crc

/**
 * 64-bit stable hash of a channel id (FNV-1a): shard selection must
 * not depend on std::hash, whose value is implementation-defined.
 */
uint64_t channelHash(const std::string &id);

} // namespace divot::store

#endif // DIVOT_STORE_CODEC_HH
