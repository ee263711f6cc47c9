/**
 * @file
 * Committed golden files under tests/golden/: read one, or compare
 * bytes the code produced against one. A test never rewrites a
 * fixture; on a mismatch it writes what the code produced to
 * TempDir()/gpuperf-golden-actual/ (TempDir() reads $TEST_TMPDIR
 * first, else /tmp/) for inspection, and an intended change copies
 * it back in the same commit.
 *
 * Header-only, outside the library.
 */

#ifndef GPUPERF_TESTS_GOLDEN_H
#define GPUPERF_TESTS_GOLDEN_H

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "store/serializer.h"

namespace gpuperf {
namespace golden {

inline std::string
path(const std::string &name)
{
    return std::string(GPUPERF_GOLDEN_DIR) + "/" + name;
}

/** The fixture's bytes ("" when it does not exist). */
inline std::string
read(const std::string &name)
{
    std::ifstream in(path(name), std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/**
 * Compare @p actual against fixture @p name; on a mismatch, write
 * @p actual under the temp dir and name the first differing byte.
 */
inline ::testing::AssertionResult
matchesGolden(const std::string &name, const std::string &actual)
{
    const std::string want = read(name);
    if (actual == want)
        return ::testing::AssertionSuccess();
    // gtest 1.11's TempDir() returns $TEST_TMPDIR without adding '/'.
    std::string dir = ::testing::TempDir();
    if (dir.empty() || dir.back() != '/')
        dir += '/';
    dir += "gpuperf-golden-actual";
    store::makeDirs(dir);
    std::ofstream(dir + "/" + name, std::ios::binary) << actual;
    size_t at = 0;
    while (at < actual.size() && at < want.size() &&
           actual[at] == want[at])
        ++at;
    return ::testing::AssertionFailure()
           << name << ": " << actual.size() << " bytes vs fixture "
           << want.size() << ", first difference at byte " << at
           << " (actual written to " << dir << "/" << name << ")";
}

} // namespace golden
} // namespace gpuperf

#endif // GPUPERF_TESTS_GOLDEN_H
