/**
 * @file
 * Versioned binary serialization primitives for the persistent
 * profile/calibration/result stores.
 *
 * Encoding: explicit little-endian byte order (portable across hosts),
 * doubles as their raw IEEE-754 bit pattern (round trips are exact —
 * a loaded profile or result is bit-identical to the stored one),
 * strings and containers length-prefixed.
 *
 * File format: a fixed magic, a store-wide format version, the entry's
 * full content key, then the payload. Readers reject any mismatch —
 * wrong magic, unknown version, or a key that differs from the one
 * requested (hash-collision safety) — and the caller recomputes; a
 * stale or foreign cache entry can therefore never be served.
 *
 * Entries written since the lifecycle subsystem additionally carry a
 * 16-byte checksum trailer after the payload (a trailer magic plus
 * the payload's FNV-1a hash), so a torn or bit-flipped entry is
 * detected as a miss instead of decoding to garbage, and
 * store::Verifier can scan a store without knowing any keys. Old
 * trailer-less entries remain readable — readers accept both sizes.
 */

#ifndef GPUPERF_STORE_SERIALIZER_H
#define GPUPERF_STORE_SERIALIZER_H

#include <cstdint>
#include <string>

#include "store/stats.h"

namespace gpuperf {
namespace store {

/** Append-only binary encoder. */
class ByteWriter
{
  public:
    void u8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
    void u16(uint16_t v);
    void u32(uint32_t v);
    void u64(uint64_t v);
    void i32(int32_t v) { u32(static_cast<uint32_t>(v)); }
    void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }
    void b(bool v) { u8(v ? 1 : 0); }
    /** Raw IEEE-754 bits; round-trips exactly. */
    void f64(double v);
    void str(const std::string &s);

    const std::string &bytes() const { return buf_; }
    /** Writes cannot fail (the counterpart of ByteReader::ok()). */
    bool ok() const { return true; }

  private:
    std::string buf_;
};

/**
 * Sequential binary decoder. Any overrun or malformed length sets a
 * sticky failure flag and makes every subsequent read return zero
 * values; callers check ok() once at the end instead of after every
 * field.
 */
class ByteReader
{
  public:
    explicit ByteReader(const std::string &data) : data_(data) {}

    uint8_t u8();
    uint16_t u16();
    uint32_t u32();
    uint64_t u64();
    int32_t i32() { return static_cast<int32_t>(u32()); }
    int64_t i64() { return static_cast<int64_t>(u64()); }
    bool b() { return u8() != 0; }
    double f64();
    std::string str();

    /** Consume and return everything not yet read. */
    std::string rest();

    /** True while every read so far stayed in bounds. */
    bool ok() const { return ok_; }
    /** True when the whole buffer was consumed (and ok()). */
    bool atEnd() const { return ok_ && pos_ == data_.size(); }
    /** Bytes not yet read (0 once a read failed). */
    size_t remaining() const { return ok_ ? data_.size() - pos_ : 0; }

    void fail() { ok_ = false; }

  private:
    bool take(void *out, size_t n);

    const std::string &data_;
    size_t pos_ = 0;
    bool ok_ = true;
};

/** Bytes the checksum trailer adds to an entry blob. */
constexpr size_t kChecksumTrailerBytes = 16;

/**
 * Bytes an entry blob holds besides its key and payload: magic,
 * version, key and payload lengths, and the checksum trailer.
 */
constexpr size_t kEntryFramingBytes = 8 + 4 + 8 + 8 + kChecksumTrailerBytes;

/**
 * Write magic + version + key + payload + checksum trailer to @p path
 * atomically (pid- and sequence-unique temp file + rename). Returns
 * false and warns on I/O failure — a store write error degrades to a
 * cache miss next time, never to corrupt data. @p counters (optional)
 * receives the write / write-failure / bytes-written bumps.
 *
 * The raw primitive: it always publishes. Stores save through
 * store::writeStoreEntry() (lifecycle/lifecycle.h), which skips the
 * write when the file already holds these exact bytes; tests call
 * this one to plant entries.
 */
bool writeEntryFile(const std::string &path, uint32_t version,
                    const std::string &key, const std::string &payload,
                    StoreCounters *counters = nullptr);

/** The whole of @p path into @p out; false when it cannot be read. */
bool readWholeFile(const std::string &path, std::string *out);

/**
 * Read an entry previously written by writeEntryFile(). Returns false
 * (a miss) unless the file exists, carries the expected magic and
 * @p version, stores exactly @p key, and — when a checksum trailer is
 * present — the payload hash matches. @p counters (optional) receives
 * the bytes-read bump (hit/miss semantics stay with the store, which
 * knows whether a failed read means recompute).
 */
bool readEntryFile(const std::string &path, uint32_t version,
                   const std::string &key, std::string *payload,
                   StoreCounters *counters = nullptr);

/**
 * Validate an entry's header only — magic, @p version, stored key ==
 * @p key, and a payload length consistent with the file size (with or
 * without trailer) — without reading the payload into memory. The
 * cheap existence check behind key-only paths such as
 * ProfileStore::readKey().
 */
bool readEntryHeader(const std::string &path, uint32_t version,
                     const std::string &key,
                     StoreCounters *counters = nullptr);

/**
 * Encode one entry (header + payload + checksum trailer) as the exact
 * bytes writeEntryFile() puts on disk.
 */
std::string encodeEntryBlob(uint32_t version, const std::string &key,
                            const std::string &payload);

/**
 * Parse one entry blob (a whole entry file) without knowing its key
 * in advance: validates magic, @p version, internal lengths, and the
 * checksum trailer when present, and returns the stored key and
 * payload. The primitive behind readEntryFile() and the Verifier
 * scan.
 */
bool parseEntryBlob(const std::string &blob, uint32_t version,
                    std::string *key, std::string *payload);

/**
 * Short, filesystem-safe file stem for a store key: a sanitized prefix
 * of @p name (for humans) plus an FNV-1a hash of the full key (for
 * uniqueness). A hash collision is harmless: the key stored inside the
 * entry still validates, so the worst case is a cache miss.
 */
std::string fileStem(const std::string &name, const std::string &key);

/** mkdir -p. Returns false (with a warning) when creation fails. */
bool makeDirs(const std::string &path);

} // namespace store
} // namespace gpuperf

#endif // GPUPERF_STORE_SERIALIZER_H
