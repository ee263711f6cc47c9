/**
 * @file
 * One field walk per schema type. Every type that crosses a socket or
 * lands in a store names its fields once, in wire order, each with its
 * JSON key:
 *
 *     template <class V>
 *     void fields(V &v, model::ReportMetrics &x)
 *     {
 *         v("computationalDensity", x.computationalDensity);
 *         ...
 *     }
 *
 * Visitors turn that declaration into every pass: binary write and
 * read (Binary, below), JSON write and read and exact equality
 * (api/codecs.cc). fields() overloads and visitors all live in this
 * namespace, so a visitor's recursion finds every walk. Adding a field
 * is one line in its type's fields(). A walk can say:
 *
 *  - v(key, x): x is a bool, integer, double, enum (see EnumWire),
 *    string, vector, map (in JSON, [key, value] pairs), pair, tuple
 *    (binary only), fixed-arity std::array or C array (no length
 *    prefix), shared_ptr<const T>, or a type with its own fields();
 *  - v(key, s, kHex): a byte string JSON carries as hex;
 *  - v(key, x, kOptional): JSON readers accept a missing key (an
 *    extra key, one the walk does not name, always fails the read);
 *  - fields(v, sub): sub's fields spliced into the current object;
 *  - v.group(key, f): the fields f names, nested under key in JSON;
 *  - v.tuple(): JSON carries this type as a positional array, bools
 *    as 0/1;
 *  - v.either(second, keyA, a, keyB, b): one of two bodies; binary
 *    writes a u8 tag (1 = b), JSON the chosen body's key (an object
 *    carrying both fails: the other key is unknown);
 *  - v.check(f): post-read validation: readers fail with f()'s
 *    message if non-empty, other visitors never call f;
 *  - V::kBinary, V::kReads, and v.ok() (readers: all well-formed so
 *    far).
 *
 * Binary encoding follows the C++ type: bools and enums u8, integers
 * at their width, doubles as raw IEEE-754 bits, strings and sequences
 * u64-length-prefixed. The reader rejects a sequence length the bytes
 * left could not hold, so a forged count never allocates beyond the
 * input.
 */

#ifndef GPUPERF_STORE_WIRE_H
#define GPUPERF_STORE_WIRE_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "store/serializer.h"

namespace gpuperf {
namespace wire {

/** Field attributes (bit flags). */
enum Attr : unsigned { kPlain = 0, kHex = 1u << 0, kOptional = 1u << 1 };

/**
 * How enum E travels: kCount valid values 0..kCount-1, and in JSON
 * either its number or (kByName) its name from kNames. Specialize
 * with ByNumber or ByName next to the walk that uses E.
 */
template <class E>
struct EnumWire;

template <int N>
struct ByNumber
{
    static constexpr int kCount = N;
    static constexpr bool kByName = false;
};

template <const auto &Names>
struct ByName
{
    static constexpr int kCount = static_cast<int>(std::size(Names));
    static constexpr bool kByName = true;
    static constexpr const char *const *kNames = Names;
};

template <class T>
size_t minWireSize();

/**
 * Binary encoder (Reads = false, over a store::ByteWriter) or decoder
 * (Reads = true, over a store::ByteReader, sticky failure).
 */
template <bool Reads>
class Binary
{
  public:
    using Stream =
        std::conditional_t<Reads, store::ByteReader, store::ByteWriter>;

    static constexpr bool kBinary = true;
    static constexpr bool kReads = Reads;

    /** @param cell_status response cells carry their ok/error. */
    explicit Binary(Stream &s, bool cell_status = false)
        : cellStatus(cell_status), s_(s)
    {
    }

    const bool cellStatus;

    bool ok() const { return s_.ok(); }

    template <class T>
    void operator()(const char *, T &x, unsigned = kPlain) { io(x); }
    template <class F>
    void group(const char *, F &&f) { f(); }
    void tuple() {}
    template <class A, class B>
    void either(bool second, const char *, A &a, const char *, B &b)
    {
        uint8_t tag = second;
        io(tag);
        if (tag > 1)
            fail();
        else if (tag == 1)
            io(b);
        else
            io(a);
    }
    template <class F>
    void check(F &&f)
    {
        if constexpr (Reads) {
            if (s_.ok() && !f().empty())
                s_.fail();
        }
    }

    void io(bool &v) { if constexpr (Reads) v = s_.b(); else s_.b(v); }
    void io(uint8_t &v) { if constexpr (Reads) v = s_.u8(); else s_.u8(v); }
    void io(uint16_t &v) { if constexpr (Reads) v = s_.u16(); else s_.u16(v); }
    void io(uint32_t &v) { if constexpr (Reads) v = s_.u32(); else s_.u32(v); }
    void io(uint64_t &v) { if constexpr (Reads) v = s_.u64(); else s_.u64(v); }
    void io(int32_t &v) { if constexpr (Reads) v = s_.i32(); else s_.i32(v); }
    void io(int64_t &v) { if constexpr (Reads) v = s_.i64(); else s_.i64(v); }
    void io(double &v) { if constexpr (Reads) v = s_.f64(); else s_.f64(v); }
    void io(std::string &v)
    {
        if constexpr (Reads)
            v = s_.str();
        else
            s_.str(v);
    }
    template <class E, std::enable_if_t<std::is_enum_v<E>, int> = 0>
    void io(E &e)
    {
        uint8_t v = static_cast<uint8_t>(e);
        io(v);
        // Encoding only reads: another thread may be reading the same
        // object (a writer node encodes a replay that cells analyze).
        if (v >= EnumWire<E>::kCount)
            fail();
        else if constexpr (Reads)
            e = static_cast<E>(v);
    }
    template <class T>
    void io(std::vector<T> &v)
    {
        const uint64_t n = count<T>(v.size());
        if constexpr (Reads) {
            v.reserve(v.size() + n);
            for (uint64_t i = 0; i < n && s_.ok(); ++i)
                io(v.emplace_back());
        } else {
            for (T &e : v)
                io(e);
        }
    }
    template <class T, size_t N>
    void io(std::array<T, N> &a) { each(a); }
    template <class T, size_t N>
    void io(T (&a)[N]) { each(a); }
    template <class K, class T>
    void io(std::map<K, T> &m)
    {
        const uint64_t n = count<std::pair<K, T>>(m.size());
        if constexpr (Reads) {
            for (uint64_t i = 0; i < n && s_.ok(); ++i) {
                std::pair<K, T> e;
                io(e);
                m[e.first] = std::move(e.second);
            }
        } else {
            for (auto &[key, value] : m) {
                K k = key;
                io(k);
                io(value);
            }
        }
    }
    template <class... T>
    void io(std::tuple<T...> &t)
    {
        std::apply([this](T &...e) { (io(e), ...); }, t);
    }
    template <class T>
    void io(std::shared_ptr<const T> &p)
    {
        auto q = Reads ? std::make_shared<T>() : std::const_pointer_cast<T>(p);
        io(*q);
        if (Reads && ok())
            p = std::move(q);
    }
    template <class T, std::enable_if_t<std::is_class_v<T>, int> = 0>
    void io(T &x) { fields(*this, x); }

  private:
    void fail()
    {
        if constexpr (Reads)
            s_.fail();
    }
    template <class C>
    void each(C &c)
    {
        for (auto &e : c)
            io(e);
    }
    /** A sequence length; readers fail one the bytes left can't hold. */
    template <class T>
    uint64_t count(uint64_t n)
    {
        io(n);
        if constexpr (Reads) {
            if (n > s_.remaining() / minWireSize<T>()) {
                fail();
                return 0;
            }
        }
        return n;
    }

    Stream &s_;
};

/** A pair travels as the tuple [first, second]. */
template <class V, class A, class B>
void
fields(V &v, std::pair<A, B> &x)
{
    v.tuple();
    v("first", x.first);
    v("second", x.second);
}

/** Append @p x's binary encoding to @p w. */
template <class T>
void
encode(store::ByteWriter &w, const T &x)
{
    Binary<false>(w).io(const_cast<T &>(x));
}

/** Decode @p x from @p r; false on malformed input. */
template <class T>
bool
decode(store::ByteReader &r, T *x)
{
    Binary<true>(r).io(*x);
    return r.ok();
}

/**
 * The fewest bytes any T encodes to: the size of a default T, whose
 * sequences and strings are empty and whose either() takes its
 * smaller first body.
 */
template <class T>
size_t
minWireSize()
{
    static const size_t n = [] {
        store::ByteWriter w;
        encode(w, T{});
        return std::max<size_t>(w.bytes().size(), 1);
    }();
    return n;
}

} // namespace wire
} // namespace gpuperf

#endif // GPUPERF_STORE_WIRE_H
