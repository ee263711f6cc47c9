#include "store/serializer.h"

#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/fnv.h"
#include "common/logging.h"

namespace gpuperf {
namespace store {

namespace {

/** "GPUPERFS" as little-endian bytes. */
constexpr uint64_t kMagic = 0x53465245'50555047ull;

/** "GPUPERFC" as little-endian bytes — opens the checksum trailer. */
constexpr uint64_t kChecksumMagic = 0x43465245'50555047ull;

/**
 * Split an entry body (everything after the payload-length field)
 * into payload and optional trailer. @p size is the declared payload
 * length. True when the body is exactly a payload (legacy) or a
 * payload plus a valid checksum trailer.
 */
bool
checkEntryBody(const std::string &body, uint64_t size)
{
    if (body.size() == size)
        return true; // legacy trailer-less entry
    if (body.size() != size + kChecksumTrailerBytes)
        return false;
    const std::string trailer = body.substr(size);
    ByteReader t(trailer);
    const uint64_t magic = t.u64();
    const uint64_t sum = t.u64();
    return t.ok() && magic == kChecksumMagic &&
           sum == fnv1a64(body.data(), size);
}

} // namespace

void
ByteWriter::u16(uint16_t v)
{
    buf_.push_back(static_cast<char>(v & 0xff));
    buf_.push_back(static_cast<char>((v >> 8) & 0xff));
}

void
ByteWriter::u32(uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf_.push_back(static_cast<char>((v >> (i * 8)) & 0xff));
}

void
ByteWriter::u64(uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf_.push_back(static_cast<char>((v >> (i * 8)) & 0xff));
}

void
ByteWriter::f64(double v)
{
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v), "double is not 64-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
ByteWriter::str(const std::string &s)
{
    u64(s.size());
    buf_.append(s);
}

bool
ByteReader::take(void *out, size_t n)
{
    if (!ok_ || pos_ + n > data_.size() || pos_ + n < pos_) {
        ok_ = false;
        std::memset(out, 0, n);
        return false;
    }
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
    return true;
}

uint8_t
ByteReader::u8()
{
    uint8_t v = 0;
    take(&v, 1);
    return v;
}

uint16_t
ByteReader::u16()
{
    unsigned char b[2] = {};
    take(b, 2);
    return static_cast<uint16_t>(b[0] | (b[1] << 8));
}

uint32_t
ByteReader::u32()
{
    unsigned char b[4] = {};
    take(b, 4);
    return static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
           (static_cast<uint32_t>(b[2]) << 16) |
           (static_cast<uint32_t>(b[3]) << 24);
}

uint64_t
ByteReader::u64()
{
    unsigned char b[8] = {};
    take(b, 8);
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | b[i];
    return v;
}

double
ByteReader::f64()
{
    const uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
ByteReader::str()
{
    const uint64_t n = u64();
    if (!ok_ || pos_ + n > data_.size() || pos_ + n < pos_) {
        ok_ = false;
        return "";
    }
    std::string s(data_.data() + pos_, n);
    pos_ += n;
    return s;
}

std::string
ByteReader::rest()
{
    if (!ok_)
        return "";
    std::string s(data_.data() + pos_, data_.size() - pos_);
    pos_ = data_.size();
    return s;
}

std::string
encodeEntryBlob(uint32_t version, const std::string &key,
                const std::string &payload)
{
    ByteWriter w;
    w.u64(kMagic);
    w.u32(version);
    w.str(key);
    w.u64(payload.size());
    std::string blob = w.bytes();
    blob.append(payload);
    ByteWriter trailer;
    trailer.u64(kChecksumMagic);
    trailer.u64(fnv1a64(payload.data(), payload.size()));
    blob.append(trailer.bytes());
    return blob;
}

bool
parseEntryBlob(const std::string &blob, uint32_t version,
               std::string *key, std::string *payload)
{
    ByteReader r(blob);
    if (r.u64() != kMagic || r.u32() != version)
        return false;
    std::string stored_key = r.str();
    const uint64_t size = r.u64();
    if (!r.ok())
        return false;
    std::string body = r.rest();
    if (!checkEntryBody(body, size))
        return false;
    body.resize(size);
    *key = std::move(stored_key);
    *payload = std::move(body);
    return true;
}

bool
writeEntryFile(const std::string &path, uint32_t version,
               const std::string &key, const std::string &payload,
               StoreCounters *counters)
{
    const std::string blob = encodeEntryBlob(version, key, payload);

    // Unique per process AND per call: concurrent writers of the
    // same entry (e.g. two batch cells sharing a profile key) must
    // never truncate each other's in-flight temp file, or a reader
    // of the renamed result could observe a torn entry.
    static std::atomic<uint64_t> write_seq{0};
    const std::string tmp = path + ".tmp." +
                            std::to_string(::getpid()) + "." +
                            std::to_string(write_seq.fetch_add(1));
    std::ofstream out(tmp, std::ios::binary);
    if (!out) {
        warn("store: cannot write '%s'", path.c_str());
        if (counters)
            counters->writeFailed();
        return false;
    }
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    out.close();
    if (!out) {
        warn("store: short write to '%s'", path.c_str());
        std::remove(tmp.c_str());
        if (counters)
            counters->writeFailed();
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("store: cannot move entry into '%s'", path.c_str());
        std::remove(tmp.c_str());
        if (counters)
            counters->writeFailed();
        return false;
    }
    if (counters)
        counters->wrote(blob.size());
    return true;
}

bool
readWholeFile(const std::string &path, std::string *out)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        return false;
    const std::streamoff size = in.tellg();
    if (size < 0)
        return false;
    out->assign(static_cast<size_t>(size), '\0');
    in.seekg(0, std::ios::beg);
    return static_cast<bool>(
        in.read(&(*out)[0], static_cast<std::streamsize>(size)));
}

bool
readEntryFile(const std::string &path, uint32_t version,
              const std::string &key, std::string *payload,
              StoreCounters *counters)
{
    std::string data;
    if (!readWholeFile(path, &data))
        return false;
    if (counters)
        counters->read(data.size());
    std::string stored_key;
    return parseEntryBlob(data, version, &stored_key, payload) &&
           stored_key == key;
}

bool
readEntryHeader(const std::string &path, uint32_t version,
                const std::string &key, StoreCounters *counters)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    // Read only the fixed header plus the key: magic (8) + version
    // (4) + key length (8) + key bytes + payload length (8). The
    // payload — the expensive part of a profile entry — stays on
    // disk.
    const size_t header_size = 8 + 4 + 8 + key.size() + 8;
    std::string data(header_size, '\0');
    in.read(&data[0], static_cast<std::streamsize>(header_size));
    if (in.gcount() != static_cast<std::streamsize>(header_size))
        return false;
    if (counters)
        counters->read(header_size);
    ByteReader r(data);
    if (r.u64() != kMagic || r.u32() != version || r.str() != key)
        return false;
    // Payload length must be consistent with what is actually there
    // (a truncated entry is a miss, exactly as in readEntryFile);
    // entries written before the checksum trailer existed are 16
    // bytes shorter and stay readable.
    const uint64_t size = r.u64();
    if (!r.ok())
        return false;
    in.seekg(0, std::ios::end);
    const std::streamoff file_size = in.tellg();
    if (file_size < 0)
        return false;
    const uint64_t actual = static_cast<uint64_t>(file_size);
    return actual == header_size + size ||
           actual == header_size + size + kChecksumTrailerBytes;
}

std::string
fileStem(const std::string &name, const std::string &key)
{
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(fnv1a64(key)));
    std::string out;
    for (char c : name.substr(0, 48)) {
        out.push_back(
            std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
    }
    if (!out.empty())
        out.push_back('-');
    return out + hex;
}

bool
makeDirs(const std::string &path)
{
    if (path.empty())
        return false;
    std::string partial;
    for (size_t i = 0; i <= path.size(); ++i) {
        if (i != path.size() && path[i] != '/')
            continue;
        partial = path.substr(0, i == path.size() ? i : i + 1);
        if (partial.empty() || partial == "/")
            continue;
        if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
            warn("store: cannot create directory '%s'", partial.c_str());
            return false;
        }
    }
    return true;
}

} // namespace store
} // namespace gpuperf
