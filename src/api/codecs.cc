#include "api/codecs.h"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "api/json.h"
#include "common/logging.h"

namespace gpuperf {
namespace api {

std::string
kernelStructureError(const std::vector<isa::Instruction> &instrs,
                     int num_regs, int num_preds)
{
    using isa::Opcode;
    const auto at = [](int pc, const std::string &what) {
        return "instruction " + std::to_string(pc) + ": " + what;
    };
    if (num_regs <= 0)
        return "kernel needs at least one register";
    const int n = static_cast<int>(instrs.size());
    std::vector<Opcode> stack;
    for (int pc = 0; pc < n; ++pc) {
        const isa::Instruction &inst = instrs[pc];
        switch (inst.op) {
          case Opcode::kIf:
            if (inst.pred == isa::kNoPred)
                return at(pc, "IF without a guard predicate");
            stack.push_back(Opcode::kIf);
            break;
          case Opcode::kElse:
            if (stack.empty() || stack.back() != Opcode::kIf)
                return at(pc, "ELSE without an open IF");
            // One ELSE per IF: mark the frame as "in else".
            stack.back() = Opcode::kElse;
            break;
          case Opcode::kEndif:
            if (stack.empty() || (stack.back() != Opcode::kIf &&
                                  stack.back() != Opcode::kElse))
                return at(pc, "ENDIF without an open IF");
            stack.pop_back();
            break;
          case Opcode::kLoop:
            stack.push_back(Opcode::kLoop);
            break;
          case Opcode::kBrk:
            if (inst.pred == isa::kNoPred)
                return at(pc, "BRK without a guard predicate");
            if (stack.empty() || stack.back() != Opcode::kLoop)
                return at(pc, "BRK not directly inside a LOOP");
            break;
          case Opcode::kEndloop:
            if (stack.empty() || stack.back() != Opcode::kLoop)
                return at(pc, "ENDLOOP without an open LOOP");
            stack.pop_back();
            break;
          case Opcode::kExit:
            if (pc != n - 1)
                return at(pc, "EXIT before the last instruction");
            break;
          default:
            break;
        }
        if (isa::writesRegister(inst.op) &&
            (inst.dst == isa::kNoReg || inst.dst >= num_regs))
            return at(pc, "destination register out of range");
        if (isa::writesPredicate(inst.op) && inst.pred >= num_preds)
            return at(pc, "destination predicate out of range");
        for (isa::Reg s : inst.src) {
            if (s != isa::kNoReg && s >= num_regs)
                return at(pc, "source register out of range");
        }
    }
    if (!stack.empty())
        return "unterminated control structures";
    return std::string();
}

} // namespace api

namespace wire {

/**
 * JSON encoder (Reads = false: builds the Json tree the codecs dump)
 * or decoder (Reads = true). The decoder range-checks every number
 * before its cast (converting an out-of-range double is undefined
 * behaviour, and the value came off the wire) and reports the first
 * failure.
 */
template <bool Reads>
class JsonWalk
{
  public:
    using Node = std::conditional_t<Reads, const api::Json, api::Json>;

    static constexpr bool kBinary = false;
    static constexpr bool kReads = Reads;

    explicit JsonWalk(Node &obj, std::string *error = nullptr)
        : at_{&obj}, error_(error)
    {
    }

    bool ok() const { return ok_; }

    template <class T>
    void operator()(const char *key, T &x, unsigned attrs = kPlain)
    {
        child(key, attrs, [&](Node &j) { io(j, key, x, attrs); });
    }
    template <class F>
    void group(const char *key, F &&f)
    {
        child(key, kPlain, [&](Node &j) { nested(j, key, f); });
    }
    void tuple()
    {
        if constexpr (!Reads)
            *at_.cur = api::Json::array();
        else if (!at_.cur->isArray())
            fail(at_.key, "must be an array");
        at_.tuple = true;
    }
    template <class A, class B>
    void either(bool second, const char *key_a, A &a, const char *key_b,
                B &b)
    {
        if constexpr (Reads)
            second = at_.cur->isObject() && at_.cur->find(key_b);
        second ? (*this)(key_b, b) : (*this)(key_a, a);
    }
    template <class F>
    void check(F &&f)
    {
        if constexpr (Reads)
            fail(ok_ ? f() : std::string());
    }

  private:
    /** Record the first failure; an empty @p what is no failure. */
    void fail(const std::string &what)
    {
        if (what.empty() || !ok_)
            return;
        if (error_ && error_->empty())
            *error_ = what;
        ok_ = false;
    }
    /** Tuple fields are named after their tuple: "pairs.first". */
    void fail(const char *key, const char *what)
    {
        fail("field '" + (at_.tuple ? at_.key + std::string(".") : "") +
             key + "' " + what);
    }

    /**
     * Hand @p f the value of @p key (the next element of a tuple):
     * readers find it, writers add it.
     */
    template <class F>
    void child(const char *key, unsigned attrs, F &&f)
    {
        if constexpr (Reads) {
            if (!ok_)
                return;
            const api::Json *j = nullptr;
            if (at_.tuple && at_.next < at_.cur->size())
                j = &at_.cur->at(at_.next++);
            else if (at_.tuple)
                fail(at_.key, "has too few tuple fields");
            else if (!at_.cur->isObject())
                fail(std::string("expected object around '") + key + "'");
            else if (!(j = at_.cur->find(key)) && !(attrs & kOptional))
                fail(std::string("missing field '") + key + "'");
            if (j)
                f(*j);
        } else {
            api::Json j;
            f(j);
            if (at_.tuple)
                at_.cur->push(std::move(j));
            else
                at_.cur->set(key, std::move(j));
        }
    }

    /** Walk @p f over the nested object (or tuple) @p j. */
    template <class F>
    void nested(Node &j, const char *key, F &&f)
    {
        if constexpr (!Reads) {
            j = api::Json::object();
        } else if (!j.isObject() && !j.isArray()) {
            fail(key, "must be an object");
            return;
        }
        const Frame outer = std::exchange(at_, Frame{&j, key});
        f();
        if (Reads && at_.tuple && at_.next != j.size())
            fail(key, "has too many tuple fields");
        at_ = outer;
    }

    /** true/false; 0/1 inside a tuple. */
    void io(Node &j, const char *key, bool &x, unsigned)
    {
        int32_t n = x;
        if (at_.tuple)
            io(j, key, n, kPlain);
        else if constexpr (!Reads)
            j = api::Json::boolean(x);
        else if (j.isBool())
            n = j.asBool();
        else
            fail(key, "must be a boolean");
        if (n < 0)
            fail(key, "must be 0 or 1");
        if constexpr (Reads)
            x = n > 0;
    }
    /** 64-bit integers stop at +/-2^53, where doubles stay exact. */
    template <class I, std::enable_if_t<std::is_integral_v<I>, int> = 0>
    void io(Node &j, const char *key, I &x, unsigned)
    {
        constexpr double kExact = 9007199254740992.0; // 2^53
        constexpr double lo =
            sizeof(I) == 8 ? -kExact : std::numeric_limits<I>::min();
        constexpr double hi =
            sizeof(I) == 8 ? kExact : std::numeric_limits<I>::max();
        if constexpr (!Reads)
            j = api::Json::number(static_cast<double>(x));
        else if (j.isNumber() && j.asNumber() >= lo && j.asNumber() <= hi)
            x = static_cast<I>(j.asNumber());
        else
            fail(key, "must be an integer in range");
    }
    /**
     * Decimal strings, since u64 counters can exceed 2^53; readers
     * also take a number below 2^64.
     */
    void io(Node &j, const char *key, uint64_t &x, unsigned)
    {
        char *end = nullptr;
        if constexpr (!Reads) {
            j = api::Json::str(std::to_string(x));
        } else if (j.isNumber() && j.asNumber() >= 0 &&
                   j.asNumber() < 18446744073709551616.0) {
            x = static_cast<uint64_t>(j.asNumber());
        } else {
            if (j.isString() && !j.asString().empty())
                x = std::strtoull(j.asString().c_str(), &end, 10);
            if (!end || *end != '\0')
                fail(key, "must be an unsigned integer (number or "
                          "decimal string)");
        }
    }
    /** Finite doubles as numbers; NaN/Inf as "nan"/"inf"/"-inf". */
    void io(Node &j, const char *key, double &x, unsigned)
    {
        if constexpr (!Reads) {
            const char *inf = x > 0 ? "inf" : "-inf";
            j = std::isfinite(x) ? api::Json::number(x)
                                 : api::Json::str(std::isnan(x) ? "nan" : inf);
            return;
        }
        const std::string s = j.isString() ? j.asString() : "";
        if (j.isNumber())
            x = j.asNumber();
        else if (s == "nan" || s == "inf" || s == "-inf")
            x = s == "nan" ? std::nan("") : s == "inf" ? HUGE_VAL : -HUGE_VAL;
        else
            fail(key, "must be a number (or nan/inf string)");
    }
    void io(Node &j, const char *key, std::string &x, unsigned attrs)
    {
        const bool hex = attrs & kHex;
        if constexpr (!Reads)
            j = api::Json::str(hex ? api::hexEncode(x) : x);
        else if (!j.isString())
            fail(key, "must be a string");
        else if (!hex)
            x = j.asString();
        else if (!api::hexDecode(j.asString(), &x))
            fail(key, "is not valid hex");
    }
    /** By name when EnumWire<E> has names, else by number. */
    template <class E, std::enable_if_t<std::is_enum_v<E>, int> = 0>
    void io(Node &j, const char *key, E &x, unsigned)
    {
        using Wire = EnumWire<E>;
        int i = static_cast<int>(x);
        if constexpr (!Wire::kByName) {
            io(j, key, i, kPlain);
        } else if constexpr (!Reads) {
            j = api::Json::str(Wire::kNames[i < Wire::kCount ? i : 0]);
        } else {
            i = -1;
            for (int k = 0; k < Wire::kCount && j.isString(); ++k)
                i = j.asString() == Wire::kNames[k] ? k : i;
        }
        if (i < 0 || i >= Wire::kCount)
            fail(key, "has an unknown value");
        else if constexpr (Reads)
            x = static_cast<E>(i);
    }
    template <class T>
    void io(Node &j, const char *key, std::vector<T> &x, unsigned attrs)
    {
        if constexpr (Reads)
            x.resize(j.isArray() ? j.size() : 0);
        each(j, key, x, attrs);
    }
    template <class T, size_t N>
    void io(Node &j, const char *key, std::array<T, N> &x, unsigned attrs)
    {
        if (Reads && j.isArray() && j.size() != N)
            fail(key, "has the wrong arity");
        each(j, key, x, attrs);
    }
    /** A sequence of [key, value] pairs. */
    template <class K, class T>
    void io(Node &j, const char *key, std::map<K, T> &x, unsigned attrs)
    {
        std::vector<std::pair<K, T>> pairs(x.begin(), x.end());
        io(j, key, pairs, attrs);
        if constexpr (Reads) {
            for (auto &[k, v] : pairs)
                x[k] = std::move(v);
        }
    }
    template <class T>
    void io(Node &j, const char *key, std::shared_ptr<const T> &x,
            unsigned attrs)
    {
        auto p = Reads ? std::make_shared<T>() : std::const_pointer_cast<T>(x);
        io(j, key, *p, attrs);
        if (Reads && ok_)
            x = std::move(p);
    }
    template <class T, std::enable_if_t<std::is_class_v<T>, int> = 0>
    void io(Node &j, const char *key, T &x, unsigned)
    {
        nested(j, key, [&] { fields(*this, x); });
    }

    /** The elements of @p c as the JSON array @p j, in order. */
    template <class C>
    void each(Node &j, const char *key, C &c, unsigned attrs)
    {
        if constexpr (!Reads)
            j = api::Json::array();
        else if (!j.isArray())
            fail(key, "must be an array");
        size_t i = 0;
        for (auto &e : c) {
            if constexpr (Reads) {
                if (ok_)
                    io(j.at(i++), key, e, attrs);
            } else {
                api::Json item;
                io(item, key, e, attrs);
                j.push(std::move(item));
            }
        }
    }

    /** The object being walked. */
    struct Frame
    {
        Node *cur;
        /** The key it was read from (for messages). */
        const char *key = "";
        /** It is a tuple; next indexes its next field. */
        bool tuple = false;
        size_t next = 0;
    };

    Frame at_;
    std::string *error_;
    bool ok_ = true;
};

/**
 * Exact equality of two values of one response type, doubles by bit
 * pattern. It walks the first value and finds each field of the
 * second at the same offset, so it allocates nothing, and it records
 * the path to the first difference. The request types' walks, which
 * use group(), either() and copies of fields, are outside its reach.
 */
class Equal
{
  public:
    static constexpr bool kBinary = false;

    template <class T>
    bool same(const T &a, const T &b)
    {
        cmp(a, b);
        return !differ_;
    }

    /** Sequence index at @p step of the path, or -1. */
    int64_t index(int step) const { return path_[step].index; }
    /** The path from @p step on, e.g. "prediction.stages[0].tShared". */
    std::string path(int step = 0) const
    {
        std::string out;
        for (int i = step; i < depth_; ++i) {
            out += (i > step ? "." : "") + std::string(path_[i].key);
            if (path_[i].index >= 0)
                out += "[" + std::to_string(path_[i].index) + "]";
        }
        return out;
    }

    template <class T>
    void operator()(const char *key, const T &x, unsigned = kPlain)
    {
        const ptrdiff_t off = reinterpret_cast<const char *>(&x) -
                              static_cast<const char *>(a_);
        GPUPERF_ASSERT(off >= 0 &&
                           static_cast<size_t>(off) + sizeof(T) <= size_ &&
                           depth_ < kMaxDepth,
                       "Equal walks members of the current object only");
        if (differ_)
            return;
        path_[depth_++] = {key, -1};
        cmp(x, *reinterpret_cast<const T *>(
                   static_cast<const char *>(b_) + off));
        depth_ -= differ_ ? 0 : 1;
    }
    void tuple() {}
    template <class F>
    void check(F &&) {}

  private:
    static constexpr int kMaxDepth = 16;

    void cmp(double a, double b)
    {
        differ_ = std::memcmp(&a, &b, sizeof(double)) != 0;
    }
    template <class T, std::enable_if_t<!std::is_class_v<T>, int> = 0>
    void cmp(T a, T b) { differ_ = a != b; }
    void cmp(const std::string &a, const std::string &b) { differ_ = a != b; }
    template <class T>
    void cmp(const std::vector<T> &a, const std::vector<T> &b) { each(a, b); }
    template <class T, size_t N>
    void cmp(const std::array<T, N> &a, const std::array<T, N> &b)
    {
        each(a, b);
    }
    template <class K, class T>
    void cmp(const std::map<K, T> &a, const std::map<K, T> &b) { each(a, b); }
    template <class T, std::enable_if_t<std::is_class_v<T>, int> = 0>
    void cmp(const T &a, const T &b)
    {
        const void *outer_a = std::exchange(a_, &a);
        const void *outer_b = std::exchange(b_, &b);
        const size_t outer_size = std::exchange(size_, sizeof(T));
        fields(*this, const_cast<T &>(a));
        a_ = outer_a;
        b_ = outer_b;
        size_ = outer_size;
    }
    /** Element-wise, tagging the current step with the index. */
    template <class C>
    void each(const C &a, const C &b)
    {
        differ_ = a.size() != b.size();
        int64_t i = 0;
        for (auto x = a.begin(), y = b.begin(); x != a.end() && !differ_;
             ++x, ++y) {
            path_[depth_ - 1].index = i++;
            cmp(*x, *y);
        }
        if (!differ_)
            path_[depth_ - 1].index = -1;
    }

    struct Step
    {
        const char *key;
        int64_t index;
    };

    const void *a_ = nullptr;
    const void *b_ = nullptr;
    size_t size_ = 0;
    bool differ_ = false;
    int depth_ = 0;
    Step path_[kMaxDepth] = {};
};

} // namespace wire

namespace api {

void
writeRequest(store::ByteWriter &w, const AnalysisRequest &req)
{
    wire::encode(w, req);
}

bool
readRequest(store::ByteReader &r, AnalysisRequest *req)
{
    return wire::decode(r, req);
}

void
writeResponse(store::ByteWriter &w, const AnalysisResponse &resp)
{
    wire::Binary<false>(w, /*cell_status=*/true)
        .io(const_cast<AnalysisResponse &>(resp));
}

bool
readResponse(store::ByteReader &r, AnalysisResponse *resp)
{
    wire::Binary<true>(r, /*cell_status=*/true).io(*resp);
    return r.ok();
}

namespace {

template <class T>
std::string
toJson(const T &x)
{
    Json j = Json::object();
    wire::JsonWalk<false> v(j);
    wire::fields(v, const_cast<T &>(x));
    return j.dump();
}

template <class T>
bool
fromJson(const std::string &text, T *x, std::string *error)
{
    Json j;
    if (!Json::parse(text, &j, error))
        return false;
    wire::JsonWalk<true> v(j, error);
    wire::fields(v, *x);
    return v.ok();
}

} // namespace

std::string
requestToJson(const AnalysisRequest &req)
{
    return toJson(req);
}

bool
requestFromJson(const std::string &text, AnalysisRequest *req,
                std::string *error)
{
    return fromJson(text, req, error);
}

std::string
responseToJson(const AnalysisResponse &resp)
{
    return toJson(resp);
}

bool
responseFromJson(const std::string &text, AnalysisResponse *resp,
                 std::string *error)
{
    return fromJson(text, resp, error);
}

bool
responsesEqual(const AnalysisResponse &a, const AnalysisResponse &b,
               std::string *whyNot)
{
    wire::Equal eq;
    if (eq.same(a, b))
        return true;
    if (whyNot) {
        const int64_t cell = eq.index(0);
        *whyNot = cell < 0 ? eq.path()
                           : "cell " + std::to_string(cell) + " (" +
                                 a.cells[cell].kernelName + " x " +
                                 a.cells[cell].specName +
                                 "): " + eq.path(1);
    }
    return false;
}

} // namespace api
} // namespace gpuperf
