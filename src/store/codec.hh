/**
 * @file
 * Byte codec shared by every enrollment persistence format.
 *
 * Four formats read through this module:
 *
 *  - v1: legacy single-copy EPROM image (read-only compatibility).
 *  - v2: legacy dual-bank EnrollmentStore EPROM image (read-only
 *    compatibility).
 *  - v3: shard images — the same dual-bank + per-record CRC
 *    discipline, with a richer record body (nominal response,
 *    lifecycle flags, generation counter) so a fleet channel can be
 *    rehydrated without re-deriving anything (read-only compatibility).
 *  - v4: the v3 image plus a per-bank record index, the only format
 *    written: every EnrollmentDb shard, and the EnrollmentStore EPROM
 *    (a one-shard image whose records carry only id and fingerprint).
 *    Bank placement and record frames are byte-for-byte v3;
 *    each payload appends, after its `count` record frames, a sorted
 *    `(id, frameOffset, frameLen)` index and a fixed 24-byte locator
 *    `[indexOffset][indexLen][fnv1a(index)]`, so a reader fetches the
 *    header, the locator, the index and then only the frames it wants.
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
#include <functional>
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

/** Outcome of a point lookup. */
enum class DbGetStatus
{
    Ok,            //!< record returned
    Missing,       //!< provably not in the database
    Unrecoverable, //!< frames damaged in every bank — channel must
                   //!< re-enroll
};

/** One id's outcome of a batch point read. */
struct RecordRead
{
    DbGetStatus status = DbGetStatus::Missing;
    EnrollmentRecord record; //!< valid when status == Ok
};

/** Serialize / parse one record body (no CRC frame). */
std::vector<char> encodeRecordBody(const EnrollmentRecord &record);
bool decodeRecordBody(const std::vector<char> &body,
                      EnrollmentRecord &out);
bool decodeRecordBody(const char *data, std::size_t n,
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
                                        //!< (salvage, or a strict
                                        //!< fallback to bank B)
    std::vector<RecordDamage> damagedB; //!< bad frames seen in bank B
    std::vector<RecordDamage> unrecoverable; //!< bad in both banks
    std::string detail;     //!< human-readable cause
};

/** Build a v4 dual-bank shard image from a sorted record map. */
std::vector<char>
buildShardImage(const std::map<std::string, EnrollmentRecord> &records);

/**
 * Parse a v3 or v4 shard image: bank A strict, bank B strict, then
 * per-record salvage across both banks. Salvage walks each bank's
 * frames and recovers every record whose CRC frame verifies in either
 * bank; frames damaged in both are reported in `unrecoverable` (by
 * payload index/offset, with the id when the body is still
 * parseable). The walk cannot resynchronize past a frame whose length
 * field is damaged; on v4 it ends at the index.
 *
 * @return report; `out` holds the recovered records (empty on ok=false)
 */
ShardParseReport
parseShardImage(const std::vector<char> &bytes,
                std::map<std::string, EnrollmentRecord> &out);

/**
 * Look a single record up by walking the frames of both banks of a
 * whole shard image, bank A's first — the point read's rule for
 * images without a usable index.
 *
 * @return 1 = found (out filled), 0 = provably absent, -1 = the
 *         record's frames are damaged in every readable bank
 */
int findShardRecord(const std::vector<char> &bytes,
                    const std::string &id, EnrollmentRecord &out);

/**
 * Random access to the bytes of one shard image: an in-memory buffer
 * or a file read with pread.
 */
struct ImageReader
{
    uint64_t size = 0; //!< image length, bytes
    /** Copy `n` bytes at `offset` into `out`; false on a short read. */
    std::function<bool(uint64_t offset, std::size_t n, char *out)> read;

    /** Reader over an in-memory image (which must outlive it). */
    static ImageReader of(const std::vector<char> &bytes);
};

/**
 * Point-read a batch of records from one shard image. On v4 it reads
 * bank A's header, locator and index (bank B's when A's index fails
 * its CRC), then only the wanted frames. Per id:
 *
 *  - `Ok` once the record's frame verifies (CRC, decode, and decoded
 *    id equal to the requested id) — bank A's frame, else bank B's
 *    mirrored frame at the same payload offset;
 *  - `Unrecoverable` when the index lists the id but both frames fail;
 *  - `Missing` when a verified index does not list it.
 *
 * With no verified index (a v1–v3 image, or both indexes damaged) it
 * reads the whole image and decides each id as findShardRecord does
 * (one walk per bank serves the whole batch). A record unreachable by
 * the salvage walk (both banks lost framing in front of it) can still
 * be served here: the index locates the frame directly.
 *
 * @return one entry per id, in order
 */
std::vector<RecordRead>
readShardRecords(const ImageReader &image,
                 const std::vector<std::string> &ids);

/**
 * Every id listed by a v4 image's index (bank A's, else bank B's),
 * without decoding any record body. Ids of records whose frames are
 * damaged in both banks are listed too: they are still in the image,
 * and a point read answers `Unrecoverable` for them.
 *
 * @return false when no index verifies (v1–v3 image or both indexes
 *         damaged): the caller must parse the whole image
 */
bool readShardIndexIds(const ImageReader &image,
                       std::vector<std::string> &ids);

/**
 * @name Legacy readers — the only v1/v2 parsers, for files written
 * before the EPROM became a v4 image (nothing writes v1 or v2); the
 * EnrollmentStore loader and parseLegacyImage both use them. Records
 * come back carrying only id and fingerprint (empty nominal response,
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

/** Magic/version constants of every enrollment image. */
constexpr uint32_t kStoreMagic = 0x44495654; // "DIVT"
constexpr uint32_t kLegacyV1 = 1;  //!< single-copy EPROM image
constexpr uint32_t kLegacyV2 = 2;  //!< dual-bank EPROM image
constexpr uint32_t kShardVersionV3 = 3; //!< shard image, no index
constexpr uint32_t kShardVersion = 4;   //!< shard image with index
constexpr std::size_t kBankHeaderSize = 24; // magic/ver + len + crc
constexpr std::size_t kIndexLocatorSize = 24; // offset + len + crc

/**
 * 64-bit stable hash of a channel id (FNV-1a): shard selection must
 * not depend on std::hash, whose value is implementation-defined.
 */
uint64_t channelHash(const std::string &id);

} // namespace divot::store

#endif // DIVOT_STORE_CODEC_HH
